// Package host models a Nectar host computer (a Sun-4 in the paper's
// prototype): a CPU running user processes and the CAB device driver,
// attached to its CAB through the VME bus. User processes map CAB memory
// into their address spaces (paper §3.2) — modeled by direct access to the
// CAB's data region with per-word PIO charges on the bus.
package host

import (
	"nectar/internal/hw/cab"
	"nectar/internal/hw/vme"
	"nectar/internal/model"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Host is one host computer with its CAB and VME segment.
type Host struct {
	name  string
	k     *sim.Kernel
	cost  *model.CostModel
	Sched *threads.Sched // the host CPU
	Bus   *vme.Bus
	CAB   *cab.CAB

	isr func(t *threads.Thread) // CAB driver interrupt handler
}

// New creates a host attached to c via its own VME bus and wires the
// CAB-to-host interrupt line.
func New(k *sim.Kernel, cost *model.CostModel, name string, c *cab.CAB) *Host {
	h := &Host{
		name:  name,
		k:     k,
		cost:  cost,
		Sched: threads.New(k, cost, name),
		Bus:   vme.New(k, cost, name+".vme"),
		CAB:   c,
	}
	c.SetHostInterrupt(func() {
		if h.isr == nil {
			k.Fatalf("host %s: CAB interrupt with no driver handler", name)
			return
		}
		h.Sched.RaiseInterrupt("cab", h.isr)
	})
	return h
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Kernel returns the simulation kernel.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Cost returns the cost model.
func (h *Host) Cost() *model.CostModel { return h.cost }

// OnCABInterrupt registers the CAB device driver's interrupt handler
// (installed by the hostif runtime layer).
func (h *Host) OnCABInterrupt(fn func(t *threads.Thread)) { h.isr = fn }

// Run starts a user process (an application-priority thread on the host
// CPU) and returns its thread.
func (h *Host) Run(name string, fn func(t *threads.Thread)) *threads.Thread {
	return h.Sched.Fork(name, threads.AppPriority, fn)
}

// ReadCAB copies n bytes from mapped CAB memory into host memory,
// charging one VME PIO access per word.
//
//nectar:free-hop the per-word VME cost is charged inside Bus.PIO; this wrapper only sizes the access
func (h *Host) ReadCAB(t *threads.Thread, src []byte, dst []byte) {
	n := len(src)
	if len(dst) < n {
		sim.Panicf("host %s: ReadCAB dst %d < src %d", h.name, len(dst), n)
	}
	h.Bus.PIOBytes(t, n)
	copy(dst, src[:n])
}

// WriteCAB copies len(src) bytes from host memory into mapped CAB memory,
// charging one VME PIO access per word.
//
//nectar:free-hop the per-word VME cost is charged inside Bus.PIO; this wrapper only sizes the access
func (h *Host) WriteCAB(t *threads.Thread, dst []byte, src []byte) {
	if len(dst) < len(src) {
		sim.Panicf("host %s: WriteCAB dst %d < src %d", h.name, len(dst), len(src))
	}
	h.Bus.PIOBytes(t, len(src))
	copy(dst, src)
}
