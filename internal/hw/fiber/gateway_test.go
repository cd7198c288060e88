package fiber

import (
	"slices"
	"testing"

	"nectar/internal/model"
	"nectar/internal/sim"
)

// forwarder is a test Forwarder on domain 0 of a coupling of n domains:
// route byte b forwards into domain b mod n after a 700 ns setup,
// crossing unless that is domain 0.
type forwarder struct {
	sink
	doms []*sim.Domain
}

func newForwarder(k *sim.Kernel, n int) *forwarder {
	c := sim.NewCoupling()
	f := &forwarder{sink: sink{k: k}}
	for range n {
		f.doms = append(f.doms, c.AddDomain(sim.NewKernel()))
	}
	return f
}

func (f *forwarder) Forward(b byte) (*sim.Domain, sim.Duration) {
	if d := int(b) % len(f.doms); d != 0 {
		return f.doms[d], 700
	}
	return nil, 700
}

// gatewayOn makes l, which feeds a forwarder, a gateway. reach nil means
// every domain; floor adds a 12 µs transmit-preparation floor.
func gatewayOn(l *Link, reach []bool, floor bool) *Gateway {
	var txFloor func(sim.Time) sim.Time
	if floor {
		txFloor = func(act sim.Time) sim.Time { return act + 12000 }
	}
	g := new(Gateway)
	g.Init(l, txFloor, reach)
	return g
}

// TestGatewayEarliestOutputTo pins a gateway's bound per destination,
// with nil and partial reach and with and without a transmit floor,
// while frames toward domains 1 and 2 are in flight and once the link
// is idle again. Route byte p forwards into domain p of three, crossing
// for every p but 0. Four 64-byte frames leave at 0 on routes 2, 1, 0, 1:
// each takes 5,280 ns, so the link is free at 21,120 ns, and the first
// frames toward domains 2 and 1 start at 0 and 5,280 ns.
func TestGatewayEarliestOutputTo(t *testing.T) {
	const M = sim.MaxTime
	queries := []struct {
		dst int
		act sim.Time
	}{
		{0, 0}, {1, 0}, {2, 0}, {5, 0},
		{1, 20000}, {2, 20000},
		{0, M}, {1, M}, {2, M},
		{1, M - 1},
	}
	reach1 := []bool{false, true, false}
	for _, c := range []struct {
		name           string
		reach          []bool
		floor          bool
		inFlight, idle []sim.Time
	}{
		{"every domain", nil, false,
			[]sim.Time{21820, 5980, 700, 21820, 5980, 700, M, 5980, 700, 5980},
			[]sim.Time{21820, 21820, 21820, 21820, 21820, 21820, M, M, M, M + 699}},
		{"every domain, floor", nil, true,
			[]sim.Time{21820, 5980, 700, 21820, 5980, 700, M, 5980, 700, 5980},
			[]sim.Time{21820, 21820, 21820, 21820, 32700, 32700, M, M, M, M}},
		{"domain 1", reach1, false,
			[]sim.Time{M, 5980, M, M, 5980, M, M, 5980, M, 5980},
			[]sim.Time{M, 21820, M, M, 21820, M, M, M, M, M + 699}},
		{"domain 1, floor", reach1, true,
			[]sim.Time{M, 5980, M, M, 5980, M, M, 5980, M, 5980},
			[]sim.Time{M, 21820, M, M, 32700, M, M, M, M, M}},
	} {
		k := sim.NewKernel()
		l := NewLink(k, model.Default1990(), "gw", newForwarder(k, 3))
		g := gatewayOn(l, c.reach, c.floor)
		eval := func() []sim.Time {
			var out []sim.Time
			for _, q := range queries {
				out = append(out, g.EarliestOutputTo(q.dst, q.act))
			}
			return out
		}
		var inFlight []sim.Time
		k.After(0, func() {
			for _, port := range []byte{2, 1, 0, 1} {
				l.Send(packet([]byte{port}, make([]byte, 64)))
			}
			inFlight = eval()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(inFlight, c.inFlight) {
			t.Errorf("%s: in flight = %d, want %d", c.name, inFlight, c.inFlight)
		}
		if idle := eval(); !slices.Equal(idle, c.idle) {
			t.Errorf("%s: idle = %d, want %d", c.name, idle, c.idle)
		}
		if n := g.CrossShardFrames(); n != 3 {
			t.Errorf("%s: %d cross frames, want 3", c.name, n)
		}
	}
}
