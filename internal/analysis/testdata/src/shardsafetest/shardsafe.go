// Package shardsafetest exercises the shardsafe analyzer: shard-owned
// fields and types, the receiver/parameter ownership chain, the
// unowned bases (index, range, package variable, channel receive), the
// shard-boundary waiver.
package shardsafetest

// Kernel is a whole type of per-shard state: every access to a Kernel
// value must prove same-shard ownership.
//
//nectar:shard-owned
type Kernel struct{ now int64 }

func (k *Kernel) Step()     {}
func (k *Kernel) At() int64 { return k.now }

// Domain holds the per-shard handles.
type Domain struct {
	id  int
	k   *Kernel //nectar:shard-owned
	out []int   //nectar:shard-owned
}

type Coupling struct {
	domains []*Domain
}

// --- owned accesses: silent ---

// step reaches the kernel through the receiver.
func (d *Domain) step() {
	d.k.Step()
	d.out = append(d.out, d.id)
}

// advance reaches it through a parameter.
func advance(d *Domain) { d.k.Step() }

// fresh constructs its own domain: composite literals are owned.
func fresh() *Domain {
	d := &Domain{k: &Kernel{}}
	d.k.Step()
	return d
}

// viaCall trusts call results: accessors return state they own.
func (c *Coupling) pick() *Domain { return c.domains[0] }

func viaCall(c *Coupling) { c.pick().k.Step() }

// chained follows a field chain rooted at a parameter.
type wrapper struct{ d *Domain }

func chained(w *wrapper) { w.d.k.Step() }

// reassigned locals stay owned while every source is owned.
func reassigned(a, b *Domain) {
	d := a
	d = b
	d.k.Step()
}

// closureParam: a literal's own parameters are owned like a function's.
func closureParam() func(*Domain) {
	return func(d *Domain) { d.k.Step() }
}

// --- unowned accesses: reported ---

// crossIndex picks an arbitrary shard out of the collection.
func crossIndex(c *Coupling, i int) {
	c.domains[i].k.Step() // want `shard-owned field "k" reached through a non-owned path`
}

// crossRange iterates over every shard.
func crossRange(c *Coupling) {
	for _, d := range c.domains {
		d.k.Step() // want `shard-owned field "k" reached through a non-owned path`
	}
}

// crossLocal launders the index through a local: the source chain still
// ends at an index expression.
func crossLocal(c *Coupling) {
	d := c.domains[1]
	d.out = nil // want `shard-owned field "out" reached through a non-owned path`
}

// crossGlobal reads a package variable, shared by every shard.
var current *Domain

func crossGlobal() {
	current.k.Step() // want `shard-owned field "k" reached through a non-owned path`
}

// crossChan receives a domain from a channel: by construction the value
// came from another goroutine.
func crossChan(ch chan *Domain) {
	d := <-ch
	d.k.Step() // want `shard-owned field "k" reached through a non-owned path`
}

// crossType exercises the type-level annotation: a method call on an
// arbitrary Kernel out of a slice.
func crossType(ks []*Kernel) {
	for _, k := range ks {
		k.Step() // want `shard-owned type Kernel used through a non-owned path`
	}
}

// --- the audited boundary: silent despite cross-domain access ---

// barrier is the outbox drain; the waiver (with its reason) turns the
// audit off for this one body.
//
//nectar:shard-boundary test-fixture window-barrier drain
func barrier(c *Coupling) {
	for _, d := range c.domains {
		d.k.Step()
		d.out = d.out[:0]
	}
}
