// Package nectarine implements the Nectar application interface (paper
// §3.5): "a library linked into an application's address space" providing
// a procedural interface to the Nectar communication protocols and direct
// access to mailboxes in CAB memory, presenting the same interface on both
// the CAB and the host.
//
// Nectarine hides the host-CAB plumbing: an Endpoint carries the caller's
// execution context, so the same application code runs as a host process
// or as a CAB-resident task — the paper's application-level communication
// engine usage (§5.3).
package nectarine

import (
	"fmt"

	"nectar/internal/hw/host"
	"nectar/internal/proto/nectar"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
)

// API is the per-node Nectarine library instance.
type API struct {
	mrt   *mailbox.Runtime
	pool  *syncs.Pool
	trans *nectar.Transports
	host  *host.Host
	tasks map[string]func(ep *Endpoint) // remotely startable tasks (§3.5)
}

// New creates the Nectarine instance for one node and starts its control
// task (the service behind remote mailbox/task creation, §3.5).
func New(mrt *mailbox.Runtime, pool *syncs.Pool, trans *nectar.Transports, h *host.Host) *API {
	a := &API{mrt: mrt, pool: pool, trans: trans, host: h, tasks: map[string]func(ep *Endpoint){}}
	a.startControl()
	return a
}

// Endpoint is an application's handle: a task (host process or CAB
// thread) plus its node's Nectarine instance.
type Endpoint struct {
	api      *API
	ctx      exec.Context
	ctlReply *mailbox.Mailbox // lazily created reply box for control calls
}

// RunOnHost starts an application task as a host process and hands it an
// Endpoint.
func (a *API) RunOnHost(name string, fn func(ep *Endpoint)) *threads.Thread {
	return a.host.Run(name, func(t *threads.Thread) {
		fn(&Endpoint{api: a, ctx: exec.OnHost(t, a.host)})
	})
}

// RunOnCAB starts an application task as an application-priority CAB
// thread (paper §5.3: "application-specific code can be executed on the
// CAB") and hands it an Endpoint.
func (a *API) RunOnCAB(name string, fn func(ep *Endpoint)) *threads.Thread {
	return a.mrt.CAB().Sched.Fork(name, threads.AppPriority, func(t *threads.Thread) {
		fn(&Endpoint{api: a, ctx: exec.OnCAB(t)})
	})
}

// Ctx exposes the raw execution context for interop with lower layers.
func (ep *Endpoint) Ctx() exec.Context { return ep.ctx }

// Thread returns the endpoint's thread.
func (ep *Endpoint) Thread() *threads.Thread { return ep.ctx.T }

// OnHost reports whether the task runs on the host.
func (ep *Endpoint) OnHost() bool { return ep.ctx.IsHost() }

// NewMailbox creates a mailbox on this node.
func (ep *Endpoint) NewMailbox(name string) *mailbox.Mailbox {
	return ep.api.mrt.Create(name)
}

// NewSync allocates a sync from the caller's pool.
func (ep *Endpoint) NewSync() *syncs.Sync {
	return ep.api.pool.Alloc(ep.ctx)
}

// --- Message construction/consumption (two-phase mailbox interface) ---

// Put writes data into box as one message (Begin_Put/Write/End_Put).
//
//nectar:api Nectarine's mailbox put from the paper, covered by the root Nectarine tests
func (ep *Endpoint) Put(box *mailbox.Mailbox, data []byte) {
	m := box.BeginPut(ep.ctx, len(data))
	m.Write(ep.ctx, 0, data)
	box.EndPut(ep.ctx, m)
}

// Get removes the next message from box and copies it out (Begin_Get/
// Read/End_Get), blocking until one arrives.
func (ep *Endpoint) Get(box *mailbox.Mailbox) []byte {
	m := box.BeginGet(ep.ctx)
	return ep.consume(box, m)
}

// GetPoll is Get with the spinning low-latency wait.
func (ep *Endpoint) GetPoll(box *mailbox.Mailbox) []byte {
	m := box.BeginGetPoll(ep.ctx)
	return ep.consume(box, m)
}

func (ep *Endpoint) consume(box *mailbox.Mailbox, m *mailbox.Msg) []byte {
	out := make([]byte, m.Len())
	m.Read(ep.ctx, 0, out)
	box.EndGet(ep.ctx, m)
	return out
}

// --- Transport operations ---

// SendDatagram sends an unreliable datagram to the remote mailbox dst.
func (ep *Endpoint) SendDatagram(dst wire.MailboxAddr, data []byte) {
	if !ep.OnHost() {
		_ = ep.api.trans.Datagram.SendDirect(ep.ctx, dst, 0, data)
		return
	}
	ep.api.trans.Datagram.Send(ep.ctx, dst, 0, data, nil)
}

// SendReliable sends data over RMP and blocks until it is acknowledged,
// returning the transport status (nectar.StatusOK on success).
func (ep *Endpoint) SendReliable(dst wire.MailboxAddr, data []byte) uint32 {
	if !ep.OnHost() {
		return ep.api.trans.RMP.SendBlocking(ep.ctx, dst, 0, data)
	}
	st := ep.NewSync()
	ep.api.trans.RMP.Send(ep.ctx, dst, 0, data, st)
	return st.Read(ep.ctx)
}

// Call performs a request-response (RPC) exchange with the service
// mailbox dst: it sends data, waits for the reply, and returns the reply
// payload. replyBox is the caller's reply mailbox (create one per client
// task).
func (ep *Endpoint) Call(dst wire.MailboxAddr, data []byte, replyBox *mailbox.Mailbox) ([]byte, error) {
	st := ep.NewSync()
	ep.api.trans.RRP.Call(ep.ctx, dst, data, replyBox, st)
	if s := st.Read(ep.ctx); s != nectar.StatusOK {
		return nil, fmt.Errorf("nectarine: call failed with status %d", s)
	}
	m := replyBox.BeginGetPoll(ep.ctx)
	return ep.consume(replyBox, m), nil
}

// Serve receives one request from a service mailbox, applies fn, and
// sends the reply. It returns after serving one request; servers loop.
func (ep *Endpoint) Serve(service *mailbox.Mailbox, fn func(req []byte) []byte) {
	m := service.BeginGet(ep.ctx)
	req := make([]byte, m.Len())
	m.Read(ep.ctx, 0, req)
	reply := fn(req)
	ep.api.trans.RRP.Reply(ep.ctx, m, reply)
	service.EndGet(ep.ctx, m)
}
