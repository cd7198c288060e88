package fiber

import "nectar/internal/sim"

// Forwarder is the endpoint of a gateway's link: a HUB input port, which
// forwards every frame on by its next route byte. It is the one place
// that decides where a forward goes and when; the gateway asks it rather
// than restating the decision.
type Forwarder interface {
	Endpoint
	// Forward answers for a packet-switched forward by route byte b: the
	// domain it enters when that is not the forwarder's own (nil when it
	// stays), and the setup delay it adds after the frame arrives. The
	// delay is the same for every b, so it also bounds the forwards of
	// frames whose route is not known yet.
	Forward(b byte) (to *sim.Domain, delay sim.Duration)
}

// Gateway is a link's shard-boundary role under sharded execution. A link
// feeding a HUB input port whose forwards may enter another shard carries
// one, and its shard registers it with the coupling: it bounds, per
// destination domain, the earliest cross-shard forward the link's frames
// can cause (sim.Gateway), and counts the frames whose next hop leaves the
// shard.
type Gateway struct {
	link    *Link
	fwd     Forwarder                        // the link's endpoint
	txFloor func(actFloor sim.Time) sim.Time // earliest start of a future send; nil = actFloor
	reach   []bool                           // domains the link's frames may enter; nil = every domain
	pending []gwFrame                        // cross frames in flight, in start order
	frames  uint64                           // cross frames sent
}

// gwFrame is one cross-shard frame in flight on a gateway's link: when its
// transmission started and which domain its next route hop forwards into.
type gwFrame struct {
	start sim.Time
	dst   int32
}

// Init makes g, which must be zero, link l's gateway; it is the one way
// to set one up. l's endpoint must be a Forwarder: it tells the gateway
// which domain each forward enters and the setup delay it adds, the
// lookahead that keeps windows non-trivial at zero queueing. txFloor, if
// not nil, lower-bounds the start of any future send on l given the
// owning domain's activity floor. reach, if not nil, declares the
// domains any frame l can carry may be forwarded into; the others get an
// unbounded EarliestOutputTo, which lets a well-partitioned cluster run
// whole horizons per window.
func (g *Gateway) Init(l *Link, txFloor func(actFloor sim.Time) sim.Time, reach []bool) {
	fwd, ok := l.dst.(Forwarder)
	if !ok {
		sim.Panicf("fiber: gateway on link %s, whose endpoint forwards nothing", l.name)
	}
	*g = Gateway{link: l, fwd: fwd, txFloor: txFloor, reach: reach}
	l.gw = g
}

// send records a frame its link starts transmitting at start, and reports
// whether the frame's next hop leaves the shard. Such a frame bounds the
// shard's earliest output toward that domain until its arrival retires
// the entry; arrivals come in start order, so they pop the front.
func (g *Gateway) send(pkt *Packet, start sim.Time) bool {
	if len(pkt.Route) == 0 {
		return false
	}
	to, _ := g.fwd.Forward(pkt.Route[0])
	if to == nil {
		return false
	}
	g.frames++
	g.pending = append(g.pending, gwFrame{start: start, dst: int32(to.ID())})
	return true
}

// CrossShardFrames reports how many frames the gateway's link carried
// whose next route hop left the shard. It is deliberately kept out of the
// obs registry: the metric only exists under sharded execution, and the
// merged snapshot must stay byte-identical to a sequential run's.
func (g *Gateway) CrossShardFrames() uint64 { return g.frames }

// EarliestOutputTo implements sim.Gateway: a lower bound on the timestamp
// of any future forward from the gateway's link into domain dst, given
// actFloor, a lower bound on the earliest instant the owning domain can
// execute any event. Two sources bound it: cross-shard frames toward dst
// already in flight (frames toward other domains do not cap it), and
// future sends, which cannot start before the link is free nor before the
// transmit floor. Every forward then adds the endpoint's setup delay.
// Zero-allocation: called per (gateway, destination) pair in every window
// choose phase.
//
//nectar:hotpath
func (g *Gateway) EarliestOutputTo(dst int, actFloor sim.Time) sim.Time {
	if g.reach != nil && (dst < 0 || dst >= len(g.reach) || !g.reach[dst]) {
		// No frame this link carries can ever be forwarded into dst.
		return sim.MaxTime
	}
	e := sim.MaxTime
	if actFloor < sim.MaxTime {
		e = actFloor
		if g.txFloor != nil {
			e = g.txFloor(actFloor)
		}
		if g.link.freeAt > e {
			e = g.link.freeAt
		}
	}
	// In-flight frames serialize, so starts are non-decreasing and the
	// first entry destined to dst is the earliest.
	for i := range g.pending {
		if int(g.pending[i].dst) == dst {
			if g.pending[i].start < e {
				e = g.pending[i].start
			}
			break
		}
	}
	if e >= sim.MaxTime {
		return sim.MaxTime
	}
	// The delay does not depend on the route byte (Forwarder), so any
	// byte answers for future sends and in-flight frames alike.
	_, delay := g.fwd.Forward(0)
	return e + sim.Time(delay)
}
