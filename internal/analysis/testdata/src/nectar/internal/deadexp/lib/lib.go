// Package lib exercises deadstate's exported half: exported names under
// nectar/internal/ that no non-test file of the program uses.
package lib

// Used is called from package nectar/cmd/deadexp.
func Used() int { return 1 }

func Unused() {} // want `exported func Unused has no non-test use`

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 2 } // want `exported func TestOnly has no non-test use`

var Knob = 3 // want `exported var Knob has no non-test use`

const Limit = 4 // want `exported const Limit has no non-test use`

type Spare struct{} // want `exported type Spare has no non-test use`

// Box is used from the other package, but not all of it.
type Box struct {
	Read int
	Idle int // want `exported field Box.Idle has no non-test use`
	Wire int `json:"wire"` // encoded by json: exempt
	note string
}

// Size is called from the other package.
func (b *Box) Size() int { return b.Read + len(b.note) }

func (b *Box) Drop() {} // want `exported method Box.Drop has no non-test use`

// Show matches the other package's Shower interface: exempt.
func (b *Box) Show() string { return "box" }

// String matches fmt.Stringer: exempt.
func (b *Box) String() string { return "box" }

// Kept earns its place with a reason.
//
//nectar:api the fixture's waived name
func Kept() {}

// Unpacked is waived with its type, methods and fields alike.
//
//nectar:api the fixture's waived type
type Unpacked struct {
	Field int
}

func (Unpacked) Method() {}

var (
	Rate = 1 //nectar:api a waived spec in a group
	Cost = 2 // want `exported var Cost has no non-test use`
)

// A bare waiver waives nothing and draws the directive diagnostic.
//
/* want `//nectar:api requires a reason` */ //nectar:api
func Bare() {} // want `exported func Bare has no non-test use`
