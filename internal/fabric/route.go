package fabric

// RouteTable is the shared, deduplicated store of source-route byte
// strings. A route to a node is its hub-to-hub path plus the final
// attachment port; since every node on the same crossbar pair shares the
// path and nodes on the same (hub, port) are unique, caching by
// (srcHub, dstHub, dstPort) computes each route string exactly once and
// every CAB route-table entry is a reference into this table — no
// per-node copies.
//
// Entries are immutable once built: HUBs consume route bytes by
// re-slicing, never by writing (see fiber.Packet), so one backing array
// safely serves every sender. The table is populated during cluster
// construction and node materialization — single-threaded by contract —
// and only read (through CAB route maps) while the simulation runs.
type RouteTable struct {
	topo    *Topology
	entries map[uint64][]byte
	bytes   int
}

// NewRouteTable creates a route table over topo's closed-form router.
func NewRouteTable(topo *Topology) *RouteTable {
	return &RouteTable{topo: topo, entries: make(map[uint64][]byte)}
}

// Route returns the full source route from a node on srcHub to the node
// attached at (dstHub, dstPort), computing and caching it on first use.
// The returned slice is shared: callers must treat it as read-only.
func (rt *RouteTable) Route(srcHub, dstHub, dstPort int) ([]byte, bool) {
	key := uint64(srcHub)<<32 | uint64(dstHub)<<16 | uint64(dstPort)
	if r, ok := rt.entries[key]; ok {
		return r, true
	}
	p, ok := rt.topo.HubPath(srcHub, dstHub)
	if !ok {
		return nil, false
	}
	r := make([]byte, 0, len(p)+1)
	r = append(r, p...)
	r = append(r, byte(dstPort))
	rt.entries[key] = r
	rt.bytes += len(r)
	return r, true
}

// Entries returns the number of distinct route strings in the table.
func (rt *RouteTable) Entries() int { return len(rt.entries) }

// Bytes returns the total size of all cached route strings.
func (rt *RouteTable) Bytes() int { return rt.bytes }
