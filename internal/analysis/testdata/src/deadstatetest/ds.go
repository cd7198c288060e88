package deadstatetest

// Fields written but never read.
type conn struct {
	state   int
	assign  int // want `field conn.assign is written but never read`
	counter int // want `field conn.counter is written but never read`
	bumps   int // want `field conn.bumps is written but never read`
	keyed   int // want `field conn.keyed is written but never read`
	inner   point
	Public  int // exported: out of scope
	_       int
}

type point struct{ x, y int } // want `field point.x is written but never read`

func newConn() *conn {
	c := &conn{keyed: 1, state: 2}
	c.assign = 3
	c.counter += 4
	c.bumps++
	c.inner.x = 5 // writes x, reads inner
	c.Public = 6
	return c
}

func (c *conn) State() int { return c.state }

// Unused package-level identifiers.
func helper() {} // want `func helper is never used`

func (c *conn) flush() {} // want `method conn.flush is never used`

// A var of the type reports none of its methods again.
var Default conn

var counterVar int // want `var counterVar is never used`

const limit = 8 // want `const limit is never used`

type spare struct{} // want `type spare is never used`

// countdown only calls itself.
func countdown(n int) { // want `func countdown is never used`
	if n > 0 {
		countdown(n - 1)
	}
}

// orphan appears only as its own method's receiver.
type orphan struct{} // want `type orphan is never used`

func (orphan) idle() {} // want `method orphan.idle is never used`

// testOnly is called from a _test.go file alone.
func testOnly() int { return 1 } // want `func testOnly is never used`

// Exempt: blank identifiers, init and main.
var _ = newConn

func _() {}

func init() {}

func main() {}

// Exempt: a method reached through an interface of the package.
type flusher interface{ drain(n int) error }

type pipe struct{}

func (pipe) drain(int) error { return nil }

var sink flusher = pipe{}

func Drain() error { return sink.drain(1) }

// Exempt: fields of structs compared whole, as a map key, with == or !=,
// or as a switch tag; nested by value too.
type key struct {
	lport int
	inner nested
}

type nested struct{ ip int }

type pair struct{ a, b int }

type tag struct{ c int }

var table = map[key]int{}

func Insert(p, q int) bool {
	table[key{lport: p, inner: nested{ip: q}}] = 1
	x, y := pair{a: p}, pair{b: q}
	switch (tag{c: p}) {
	case tag{}:
		return false
	}
	return x == y || x != y
}

// Generic types: uses of an instantiation count for the declaration.
type box[T any] struct {
	v    T
	hits int // want `field box.hits is written but never read`
}

func (b *box[T]) peek() T {
	b.hits++
	return b.v
}

func (b *box[T]) drop() {} // want `method box.drop is never used`

func Peek() int { return (&box[int]{v: 1}).peek() }
