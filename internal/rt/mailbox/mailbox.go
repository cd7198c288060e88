// Package mailbox implements the CAB runtime system's mailboxes (paper
// §3.3): queues of messages with network-wide addresses, whose buffer
// space lives in CAB data memory so that host processes and CAB threads
// build and consume messages in place.
//
// The two-phase interface (Begin_Put/End_Put, Begin_Get/End_Get) lets
// writers fill message buffers and readers consume them with no copying;
// Enqueue moves a message between mailboxes by pointer surgery; and the
// trim operations remove a prefix or suffix in place — which is how IP
// strips headers and hands the remaining datagram to a higher protocol
// without touching the data (paper §4.1).
//
// Every operation takes an exec.Context identifying the caller (CAB thread
// or host process) and charges the corresponding costs. Host-side
// operations come in the two implementations the paper compares (§3.3): a
// shared-memory version that updates the data structures directly over the
// VME bus, and an RPC version that ships the operation to the CAB; the
// implementation is selected per mailbox, dynamically.
package mailbox

import (
	"nectar/internal/hw/cab"
	"nectar/internal/hw/mem"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// CachedBufSize is the size of the per-mailbox cached buffer that avoids
// heap allocation for small messages (paper §3.3).
const CachedBufSize = 256

// DefaultCapacity is the default per-mailbox buffer budget: the sum of
// queued and reserved message bytes a mailbox may hold before Begin_Put
// blocks.
const DefaultCapacity = 64 << 10

// Runtime is the mailbox subsystem of one CAB's runtime system.
type Runtime struct {
	cab    *cab.CAB
	iface  *hostif.IF // host signaling; nil until a host is attached
	cost   *model.CostModel
	boxes  map[wire.MailboxID]*Mailbox
	nextID wire.MailboxID

	// The puts, gets and enqueues of the mailboxes Free has unregistered,
	// which the gauges keep counting.
	freedPuts, freedGets, freedEnqueues uint64

	msgFree pool.FreeList[*Msg] // released message records, reused by tryReserve

	obs       *obs.Observer
	queueWait *obs.Histogram // virtual time messages sit queued before Begin_Get
}

// NewRuntime creates the mailbox runtime for a CAB.
func NewRuntime(c *cab.CAB) *Runtime {
	r := &Runtime{
		cab:   c,
		cost:  c.Cost(),
		boxes: make(map[wire.MailboxID]*Mailbox),
	}
	r.obs = obs.Ensure(c.Kernel())
	m := r.obs.Metrics()
	m.Register(r)
	r.queueWait = m.Histogram(obs.LayerMailbox, "queue_wait", c.Scope())
	return r
}

// Gauges reports the puts, gets and enqueues of all the CAB's mailboxes
// (obs.Source). The sums finish before anything is emitted, so the map's
// iteration order never reaches the output.
func (r *Runtime) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	puts, gets, enqueues := r.freedPuts, r.freedGets, r.freedEnqueues
	for _, mb := range r.boxes {
		puts += mb.puts
		gets += mb.gets
		enqueues += mb.enqueues
	}
	scope := r.cab.Scope()
	emit(obs.LayerMailbox, "puts", scope, puts)
	emit(obs.LayerMailbox, "gets", scope, gets)
	emit(obs.LayerMailbox, "enqueues", scope, enqueues)
}

// AttachHost connects the host interface used for signaling host readers
// and writers.
func (r *Runtime) AttachHost(f *hostif.IF) { r.iface = f }

// CAB returns the board this runtime manages.
func (r *Runtime) CAB() *cab.CAB { return r.cab }

// Create allocates a new mailbox with a fresh network-wide address.
func (r *Runtime) Create(name string) *Mailbox {
	r.nextID++
	return r.build(r.nextID, name)
}

// CreateWithID allocates a mailbox at a reserved well-known ID (used by
// runtime services that must be addressable before any exchange, like the
// Nectarine control task). It panics if the ID is taken.
func (r *Runtime) CreateWithID(id wire.MailboxID, name string) *Mailbox {
	if _, taken := r.boxes[id]; taken {
		sim.Panicf("mailbox: ID %d already in use", id)
	}
	return r.build(id, name)
}

func (r *Runtime) build(id wire.MailboxID, name string) *Mailbox {
	mb := &Mailbox{
		rt:       r,
		name:     name,
		id:       id,
		capacity: DefaultCapacity,
	}
	mb.notEmpty.Init(name, ".notEmpty")
	mb.notFull.Init(name, ".notFull")
	// The cached small buffer (allocated once, reused for small messages).
	if buf, addr, ok := r.cab.Heap.Alloc(CachedBufSize); ok {
		mb.cache = buf
		mb.cacheAddr = addr
		mb.cacheFree = true
	}
	r.boxes[mb.id] = mb
	return mb
}

// Free unregisters mb and returns its storage to the CAB heap: its
// cached buffer and the buffers of the messages still queued in it, which
// are dropped. It charges no time, and mb's ID is never reused. mb's
// puts, gets and enqueues stay in the runtime's gauges. mb must have no
// Begin_Put in progress and no reader holding its cached buffer, and is
// not used again.
func (mb *Mailbox) Free() {
	r := mb.rt
	held := mb.cache != nil && !mb.cacheFree
	for _, m := range mb.queue {
		held = held && m.cached == nil
	}
	if mb.reserved > 0 || held {
		sim.Panicf("mailbox: Free of %q with a message outstanding", mb.name)
	}
	for _, m := range mb.queue {
		if m.cached == nil {
			r.cab.Heap.Free(m.addr)
		}
		*m = Msg{rt: r, state: stateFree}
		r.msgFree.Put(m)
	}
	mb.queue, mb.queued = nil, 0
	if mb.cache != nil {
		r.cab.Heap.Free(mb.cacheAddr)
		mb.cache, mb.cacheFree = nil, false
	}
	r.freedPuts += mb.puts
	r.freedGets += mb.gets
	r.freedEnqueues += mb.enqueues
	delete(r.boxes, mb.id)
}

// Lookup resolves a local mailbox ID (used by transports delivering
// network messages).
func (r *Runtime) Lookup(id wire.MailboxID) (*Mailbox, bool) {
	mb, ok := r.boxes[id]
	return mb, ok
}

// msgState tracks where a message's bytes are accounted.
type msgState int

const (
	stateReserved msgState = iota // between Begin_Put and End_Put: counted in owner.reserved
	stateQueued                   // in owner's queue: counted in owner.queued
	stateHeld                     // between Begin_Get and End_Get: held by the reader
	stateFree                     // released: back in the runtime's free list
)

// Msg is a message in a mailbox buffer. The data window [off, off+n) of
// the underlying allocation can be trimmed in place.
//
// Message records are pooled per runtime: End_Get and AbortPut return
// the record to the free list and the next Begin_Put reuses it. A
// released record is marked free, and Data, Read, Len, EndGet and Enqueue
// on it panic, so a use after End_Get fails where it happens instead of
// silently aliasing the next message.
type Msg struct {
	rt     *Runtime
	buf    []byte // full allocation
	addr   mem.Addr
	cached *Mailbox // non-nil: buf is this mailbox's cached buffer
	off    int      // current window start
	n      int      // current window length
	state  msgState
	owner  *Mailbox // mailbox whose accounting covers this message

	// From records the sender's reply address when a transport delivered
	// this message from the network (paper §3.3: network-wide addressing
	// lets remote services be invoked; the transport keeps the requester's
	// address alongside the request).
	From wire.MailboxAddr
	// Tag carries transport metadata alongside a delivered message (the
	// request-response protocol's transaction ID, which Reply echoes).
	Tag uint32
	// Meta carries runtime-internal metadata for messages in protocol
	// send-request mailboxes (e.g. the status sync a host sender attached
	// to its request). On the real CAB this is a one-word CAB-memory
	// address inside the request; here it is an opaque reference.
	Meta any

	queuedAt sim.Time // when the message entered its current queue
}

// Data returns the message's current data window (bytes in CAB memory).
func (m *Msg) Data() []byte {
	if m.state == stateFree {
		m.useAfterRelease("Data")
	}
	return m.buf[m.off : m.off+m.n]
}

// Len returns the current window length.
func (m *Msg) Len() int {
	if m.state == stateFree {
		m.useAfterRelease("Len")
	}
	return m.n
}

// useAfterRelease fails an operation on a released message. It stays out
// of line so that Data and Len remain small enough to inline.
//
//go:noinline
func (m *Msg) useAfterRelease(op string) {
	sim.Panicf("mailbox: %s of a released message (use after End_Get or AbortPut)", op)
}

// TrimPrefix removes n bytes from the front of the message in place
// (paper §3.3: "removing a prefix or suffix of the message without doing
// any copying"). A reserved message's trimmed bytes leave its mailbox's
// reservation with it: End_Put, Enqueue and AbortPut release the
// reservation by the message's length, so it must shrink with the
// message.
//
//nectar:hotpath
func (m *Msg) TrimPrefix(ctx exec.Context, n int) {
	if n < 0 || n > m.n {
		sim.Panicf("mailbox: TrimPrefix(%d) of %d-byte message", n, m.n)
	}
	ctx.Compute(m.rt.cost.MailboxEnqueue / 2)
	ctx.Words(2)
	m.off += n
	m.n -= n
	if m.state == stateReserved {
		m.owner.reserved -= n
	}
}

// Write copies src into the message at offset off, charging the caller's
// data-path costs (PIO words from a host, a memory copy on the CAB).
func (m *Msg) Write(ctx exec.Context, off int, src []byte) {
	ctx.CopyIn(m.Data()[off:off+len(src)], src)
}

// Read copies the window [off, off+len(dst)) into dst.
func (m *Msg) Read(ctx exec.Context, off int, dst []byte) {
	ctx.CopyOut(dst, m.Data()[off:off+len(dst)])
}

// Mailbox is one message queue (paper §3.3).
type Mailbox struct {
	rt   *Runtime
	name string
	id   wire.MailboxID

	hostRPC bool // host ops use the RPC implementation (§3.3)

	// The cached small buffer. Its flag and address pack with id and
	// hostRPC into one word.
	cacheFree bool
	cacheAddr mem.Addr
	cache     []byte

	queue    []*Msg
	queued   int // bytes in queue
	reserved int // bytes reserved by outstanding Begin_Puts
	capacity int

	// Held by value, so that a mailbox is one allocation.
	notEmpty threads.Cond
	notFull  threads.Cond

	host *hostSide // created on first host use

	upcall func(t *threads.Thread, mb *Mailbox)

	puts, gets, enqueues uint64
}

// Name returns the mailbox name.
func (mb *Mailbox) Name() string { return mb.name }

// ID returns the local mailbox ID.
func (mb *Mailbox) ID() wire.MailboxID { return mb.id }

// Addr returns the network-wide mailbox address.
func (mb *Mailbox) Addr() wire.MailboxAddr {
	return wire.MailboxAddr{Node: mb.rt.cab.Node(), Box: mb.id}
}

// SetCapacity adjusts the buffer budget.
func (mb *Mailbox) SetCapacity(n int) { mb.capacity = n }

// SetUpcall attaches a reader upcall, invoked as a side effect of End_Put
// and Enqueue (paper §3.3: "this effectively converts a cross-thread
// procedure call into a local one"). Pass nil to detach.
func (mb *Mailbox) SetUpcall(fn func(t *threads.Thread, mb *Mailbox)) { mb.upcall = fn }

// SetHostRPC selects the RPC-based implementation for host-side
// operations on this mailbox (the paper's comparison baseline; the
// shared-memory implementation is the default and is about twice as fast,
// §3.3).
func (mb *Mailbox) SetHostRPC(on bool) { mb.hostRPC = on }

// Pending returns the number of queued messages.
func (mb *Mailbox) Pending() int { return len(mb.queue) }

// QueuedBytes returns the number of message bytes sitting in the queue.
func (mb *Mailbox) QueuedBytes() int { return mb.queued }

// hostSide is a mailbox's host-facing state, built on first host use:
// the host conditions host readers and writers wait on, and the
// CAB-side handlers of the requests host operations post to the CAB
// signal queue to wake CAB threads. The conditions are held by value and
// labelled by the mailbox's name and a constant role, so setting them up
// builds no string, and the handlers are built with the hostSide, so a
// post allocates nothing.
type hostSide struct {
	notEmpty, notFull hostif.HostCond
	conds             bool // notEmpty and notFull are set up (hostConds)

	signalFn, spaceFn func(*threads.Thread)
}

func (mb *Mailbox) hostSide() *hostSide {
	if mb.host == nil {
		mb.host = &hostSide{
			signalFn: func(*threads.Thread) { mb.notEmpty.Signal() },
			spaceFn:  func(*threads.Thread) { mb.notFull.Broadcast() },
		}
	}
	return mb.host
}

// hostConds sets up, on a mailbox's first host-side wait, the host
// conditions its host readers and writers wait on.
func (mb *Mailbox) hostConds() *hostSide {
	h := mb.hostSide()
	if !h.conds {
		if mb.rt.iface == nil {
			sim.Panicf("mailbox %s: host operation with no host attached", mb.name)
		}
		h.notEmpty.Init(mb.rt.iface, mb.name, ".notEmpty")
		h.notFull.Init(mb.rt.iface, mb.name, ".notFull")
		h.conds = true
	}
	return h
}

// --- Begin_Put / End_Put ---

// BeginPut reserves a buffer for an n-byte message, blocking until space
// is available. Returns the message whose Data() window the caller fills.
func (mb *Mailbox) BeginPut(ctx exec.Context, n int) *Msg {
	if ctx.IsHost() {
		return mb.beginPutHost(ctx, n)
	}
	ctx.Compute(mb.rt.cost.MailboxBeginPut)
	ctx.Words(3)
	for {
		if m := mb.tryReserve(ctx, n); m != nil {
			return m
		}
		// Mesa semantics: wait for any release in this mailbox, then
		// retry the reservation (space may be claimed by another writer
		// first, or the heap may still be exhausted).
		mb.notFull.Wait(ctx.T)
	}
}

// BeginPutNB is the non-blocking Begin_Put used by interrupt handlers
// (paper §3.3). It returns nil when no space or no buffer is available.
//
//nectar:hotpath
func (mb *Mailbox) BeginPutNB(ctx exec.Context, n int) *Msg {
	ctx.Compute(mb.rt.cost.MailboxBeginPut)
	ctx.Words(3)
	return mb.tryReserve(ctx, n)
}

// tryReserve allocates the buffer if the budget allows. The heap
// allocation on the large-message path mirrors a real CAB heap
// allocation; the small-message path reuses the mailbox's cached buffer.
// Either way the message record comes from the runtime's free list.
//
//nectar:hotpath
func (mb *Mailbox) tryReserve(ctx exec.Context, n int) *Msg {
	if mb.queued+mb.reserved+n > mb.capacity {
		return nil
	}
	// Small messages use the mailbox's cached buffer when free.
	if n <= CachedBufSize && mb.cacheFree && mb.cache != nil {
		mb.cacheFree = false
		mb.reserved += n
		m := mb.rt.getMsg()
		m.buf, m.addr, m.cached = mb.cache[:n], mb.cacheAddr, mb
		m.n, m.state, m.owner = n, stateReserved, mb
		return m
	}
	ctx.Compute(mb.rt.cost.HeapAlloc)
	buf, addr, ok := mb.rt.cab.Heap.Alloc(n)
	if !ok {
		return nil
	}
	mb.reserved += n
	m := mb.rt.getMsg()
	m.buf, m.addr = buf[:n], addr
	m.n, m.state, m.owner = n, stateReserved, mb
	return m
}

// getMsg returns a cleared message record from the free list; the miss
// path fills the pool.
//
//nectar:hotpath
func (r *Runtime) getMsg() *Msg {
	if m, ok := r.msgFree.Get(); ok {
		return m
	}
	return &Msg{rt: r}
}

// EndPut makes a filled message available to readers (paper §3.3) and
// fires the reader upcall, if attached.
func (mb *Mailbox) EndPut(ctx exec.Context, m *Msg) {
	if ctx.IsHost() {
		mb.endPutHost(ctx, m)
		return
	}
	ctx.Compute(mb.rt.cost.MailboxEndPut)
	ctx.Words(3)
	mb.deliver(ctx, m)
}

// deliver appends m to the queue and performs reader notification,
// transferring byte accounting from m's previous state to this mailbox's
// queue.
func (mb *Mailbox) deliver(ctx exec.Context, m *Msg) {
	if m.state == stateReserved {
		m.owner.reserved -= m.n
	}
	m.state = stateQueued
	m.owner = mb
	mb.queued += m.n
	mb.queue = append(mb.queue, m)
	mb.puts++
	m.queuedAt = mb.rt.cab.Kernel().Now()
	if mb.rt.obs.Tracing() {
		mb.rt.obs.InstantArg(int(mb.rt.cab.Node()), obs.LayerMailbox, "put", mb.name, uint64(m.Tag), m.n)
	}
	mb.signalCAB(ctx)
	if h := mb.host; h != nil && h.conds {
		h.notEmpty.Signal(ctx)
	}
	if mb.upcall != nil {
		if ctx.IsHost() {
			// The upcall body must run on the CAB; ship it over.
			up := mb.upcall
			mb.rt.iface.PostToCAB(ctx, mb.name, ".upcall", func(t *threads.Thread) { up(t, mb) })
		} else {
			mb.upcall(ctx.T, mb)
		}
	}
}

// --- Begin_Get / End_Get ---

// BeginGet removes and returns the next message, blocking while the
// mailbox is empty. Host processes sleep in the CAB driver (paper §3.2's
// blocking wait); use BeginGetPoll for the polling fast path.
func (mb *Mailbox) BeginGet(ctx exec.Context) *Msg {
	if ctx.IsHost() {
		return mb.beginGetHost(ctx, false)
	}
	ctx.Compute(mb.rt.cost.MailboxBeginGet)
	ctx.Words(2)
	for {
		if m := mb.pop(); m != nil {
			return m
		}
		mb.notEmpty.Wait(ctx.T)
	}
}

// Serve forks a thread named name at prio on mb's CAB that serves mb:
// it takes each message as BeginGet does and hands it to handle, which
// owns it from then on (End_Get, Enqueue, or a later release). It is
// the protocol server loop
//
//	for {
//		handle(ctx, mb.BeginGet(ctx))
//	}
//
// as a threads server (threads.Sched.Serve): an idle server holds no
// coroutine, and every charge and event is the loop's. (BeginGet's word
// accesses cost nothing on the CAB, so the server charges only its
// compute.)
func (mb *Mailbox) Serve(name string, prio threads.Priority, handle func(ctx exec.Context, m *Msg)) *threads.Thread {
	return mb.rt.cab.Sched.Serve(name, prio, mb.rt.cost.MailboxBeginGet, &mb.notEmpty, &server{mb: mb, handle: handle})
}

// server is a mailbox server's queue (threads.Queue).
type server struct {
	mb     *Mailbox
	m      *Msg // taken by Take, handed to handle by Serve
	handle func(ctx exec.Context, m *Msg)
}

//nectar:hotpath
func (v *server) Take() bool {
	v.m = v.mb.pop()
	return v.m != nil
}

func (v *server) Serve(t *threads.Thread) {
	m := v.m
	v.m = nil
	v.handle(exec.OnCAB(t), m)
}

// BeginGetPoll is BeginGet with a spinning wait: from a host process it
// polls the mailbox's host condition with mapped reads and no system
// call — the paper's low-latency receive path (§6.1: "the host process is
// polling for receipt of the message").
func (mb *Mailbox) BeginGetPoll(ctx exec.Context) *Msg {
	if ctx.IsHost() {
		return mb.beginGetHost(ctx, true)
	}
	return mb.BeginGet(ctx)
}

// BeginGetNB removes and returns the next message, or nil if the mailbox
// is empty. Safe from interrupt handlers.
//
//nectar:hotpath
func (mb *Mailbox) BeginGetNB(ctx exec.Context) *Msg {
	ctx.Compute(mb.rt.cost.MailboxBeginGet)
	ctx.Words(2)
	return mb.pop()
}

// pop dequeues the head message and records queue-wait and trace
// observability.
//
//nectar:hotpath
func (mb *Mailbox) pop() *Msg {
	if len(mb.queue) == 0 {
		return nil
	}
	m := mb.queue[0]
	mb.queue = sim.PopFront(mb.queue)
	mb.queued -= m.n
	m.state = stateHeld
	mb.gets++
	mb.rt.queueWait.Observe(sim.Duration(mb.rt.cab.Kernel().Now() - m.queuedAt))
	if mb.rt.obs.Tracing() {
		mb.rt.obs.InstantArg(int(mb.rt.cab.Node()), obs.LayerMailbox, "get", mb.name, uint64(m.Tag), m.n)
	}
	return m
}

// EndGet releases the storage of a message obtained with Begin_Get. The
// message must not be used afterwards.
func (mb *Mailbox) EndGet(ctx exec.Context, m *Msg) {
	if m.state == stateFree {
		m.useAfterRelease("EndGet")
	}
	if ctx.IsHost() {
		mb.endGetHost(ctx, m)
		return
	}
	ctx.Compute(mb.rt.cost.MailboxEndGet)
	ctx.Words(2)
	mb.release(ctx, m)
}

// release frees m's storage, returns the record to its runtime's free
// list, and wakes writers waiting for space.
func (mb *Mailbox) release(ctx exec.Context, m *Msg) {
	if m.cached != nil {
		m.cached.cacheFree = true
	} else {
		ctx.Compute(mb.rt.cost.HeapFree)
		mb.rt.cab.Heap.Free(m.addr)
	}
	*m = Msg{rt: m.rt, state: stateFree}
	m.rt.msgFree.Put(m)
	if ctx.IsHost() && mb.notFull.HasWaiters() {
		mb.rt.iface.PostToCAB(ctx, mb.name, ".space", mb.hostSide().spaceFn)
	} else {
		mb.notFull.Broadcast()
	}
	if h := mb.host; h != nil && h.conds {
		h.notFull.Signal(ctx)
	}
}

// signalCAB wakes CAB-side readers waiting for a message. A host caller
// cannot touch the CAB scheduler directly: physically it posts to the CAB
// signal queue and rings the doorbell, and the CAB's interrupt handler
// performs the wakeup (paper §3.2 / Figure 6's "CAB must be interrupted
// and a CAB thread scheduled to handle the message").
func (mb *Mailbox) signalCAB(ctx exec.Context) {
	if ctx.IsHost() {
		if mb.notEmpty.HasWaiters() {
			mb.rt.iface.PostToCAB(ctx, mb.name, ".signal", mb.hostSide().signalFn)
		}
		return
	}
	mb.notEmpty.Signal()
}

// AbortPut abandons a Begin_Put without delivering: the reservation is
// released and the buffer freed. Used by the datalink layer when a frame
// fails its CRC or protocol sanity check mid-reception, and by readers
// discarding a held message without further processing cost semantics.
func (mb *Mailbox) AbortPut(ctx exec.Context, m *Msg) {
	ctx.Compute(mb.rt.cost.MailboxEndGet)
	ctx.Words(2)
	if m.state == stateReserved {
		m.owner.reserved -= m.n
	}
	mb.release(ctx, m)
}

// Enqueue moves a message to dst without copying the data (paper
// §3.3/§4.1: IP transfers complete datagrams to the input mailbox of the
// appropriate higher-level protocol with no copy). The message must be
// held by the caller — either reserved (between Begin_Put and End_Put) or
// obtained with Begin_Get; it must not be sitting in a queue.
func (mb *Mailbox) Enqueue(ctx exec.Context, m *Msg, dst *Mailbox) {
	if m.state == stateFree {
		m.useAfterRelease("Enqueue")
	}
	if m.state == stateQueued {
		sim.Panicf("mailbox %s: Enqueue of a message still queued", mb.name)
	}
	ctx.Compute(mb.rt.cost.MailboxEnqueue)
	ctx.Words(3)
	mb.enqueues++
	dst.deliver(ctx, m)
}

// --- Host-side implementations (paper §3.3: RPC-based vs shared-memory,
// selectable per mailbox) ---

func (mb *Mailbox) beginPutHost(ctx exec.Context, n int) *Msg {
	notFull := &mb.hostConds().notFull
	for {
		var m *Msg
		if mb.hostRPC {
			m = mb.beginPutRPC(ctx, n)
		} else {
			// Shared-memory implementation: manipulate the writer-side
			// data structures directly with mapped accesses.
			ctx.Compute(mb.rt.cost.MailboxBeginPut / 2)
			ctx.Words(6)
			m = mb.tryReserve(ctx, n)
		}
		if m != nil {
			return m
		}
		since := notFull.Poll(ctx)
		notFull.WaitBlocking(ctx, since)
	}
}

// beginPutRPC is Begin_Put's RPC implementation: the reservation runs on
// the CAB. It is its own function so that only the RPC path pays for the
// closure and the result variable it captures.
func (mb *Mailbox) beginPutRPC(ctx exec.Context, n int) *Msg {
	var m *Msg
	mb.rt.iface.CallCAB(ctx, mb.name+".BeginPut", func(t *threads.Thread) uint32 {
		m = mb.BeginPutNB(exec.OnCAB(t), n)
		return 0
	})
	return m
}

func (mb *Mailbox) endPutHost(ctx exec.Context, m *Msg) {
	if mb.hostRPC {
		mb.rt.iface.CallCAB(ctx, mb.name+".EndPut", func(t *threads.Thread) uint32 {
			mb.EndPut(exec.OnCAB(t), m)
			return 0
		})
		return
	}
	ctx.Compute(mb.rt.cost.MailboxEndPut / 2)
	ctx.Words(6)
	mb.deliver(ctx, m)
}

func (mb *Mailbox) beginGetHost(ctx exec.Context, poll bool) *Msg {
	notEmpty := &mb.hostConds().notEmpty
	for {
		var m *Msg
		if mb.hostRPC {
			m = mb.beginGetRPC(ctx)
		} else {
			ctx.Compute(mb.rt.cost.MailboxBeginGet / 2)
			ctx.Words(5)
			m = mb.pop()
		}
		if m != nil {
			return m
		}
		since := notEmpty.Poll(ctx)
		if poll {
			notEmpty.WaitPoll(ctx, since)
		} else {
			notEmpty.WaitBlocking(ctx, since)
		}
	}
}

// beginGetRPC is Begin_Get's RPC implementation (see beginPutRPC).
func (mb *Mailbox) beginGetRPC(ctx exec.Context) *Msg {
	var m *Msg
	mb.rt.iface.CallCAB(ctx, mb.name+".BeginGet", func(t *threads.Thread) uint32 {
		m = mb.BeginGetNB(exec.OnCAB(t))
		return 0
	})
	return m
}

func (mb *Mailbox) endGetHost(ctx exec.Context, m *Msg) {
	if mb.hostRPC {
		mb.rt.iface.CallCAB(ctx, mb.name+".EndGet", func(t *threads.Thread) uint32 {
			mb.EndGet(exec.OnCAB(t), m)
			return 0
		})
		return
	}
	ctx.Compute(mb.rt.cost.MailboxEndGet / 2)
	ctx.Words(5)
	mb.release(ctx, m)
}
