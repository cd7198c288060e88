// Package sockets implements the paper's §5.2 Berkeley-socket emulation:
// "an emulation library will be provided for applications that can be
// re-linked", giving host processes the familiar connection-oriented API
// while transport protocol processing stays offloaded on the CAB.
//
// Blocking connection operations (connect, accept) cannot run in the
// host's doorbell interrupt context, so the library posts them to a
// CAB-resident socket server, which forks a worker thread per request —
// the paper's task model — and signals completion through a sync-style
// status word. Data transfer uses the TCP send-request mailbox and the
// connection's receive mailbox directly, so the fast path stays zero-copy
// shared memory with no system calls.
package sockets

import (
	"fmt"

	"nectar/internal/proto/tcp"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
)

// API is the per-node socket library instance.
type API struct {
	tcp   *tcp.Layer
	rt    *mailbox.Runtime
	iface *hostif.IF
	pool  *syncs.Pool
}

// New creates the socket library for one node.
func New(t *tcp.Layer, rt *mailbox.Runtime, iface *hostif.IF, pool *syncs.Pool) *API {
	return &API{tcp: t, rt: rt, iface: iface, pool: pool}
}

// Socket is one connection endpoint, usable from host processes (the
// intended §5.2 clients) and CAB tasks alike.
type Socket struct {
	api  *API
	conn *tcp.Conn
	ln   *tcp.Listener
}

// completion codes passed through the status sync.
const (
	stOK   uint32 = 1
	stFail uint32 = 2
)

// runOnCAB ships a blocking operation to a fresh CAB worker thread (host
// callers) or runs it inline (CAB callers), then waits for its status.
func (a *API) runOnCAB(ctx exec.Context, name string, op func(ct exec.Context) bool) error {
	if !ctx.IsHost() {
		if !op(ctx) {
			return fmt.Errorf("sockets: %s failed", name)
		}
		return nil
	}
	status := a.pool.Alloc(ctx)
	a.iface.PostToCAB(ctx, "socket."+name, func(t *threads.Thread) {
		// Interrupt context: fork the worker that may block.
		a.rt.CAB().Sched.Fork("socket-"+name, threads.SystemPriority, func(w *threads.Thread) {
			wctx := exec.OnCAB(w)
			if op(wctx) {
				status.Write(wctx, stOK)
			} else {
				status.Write(wctx, stFail)
			}
		})
	})
	if status.Read(ctx) != stOK {
		return fmt.Errorf("sockets: %s failed", name)
	}
	return nil
}

// Connect opens a connection to ip:port, like connect(2).
func (a *API) Connect(ctx exec.Context, ip uint32, port uint16) (*Socket, error) {
	sk := &Socket{api: a}
	err := a.runOnCAB(ctx, "connect", func(ct exec.Context) bool {
		c, err := a.tcp.Connect(ct, ip, port)
		if err != nil {
			return false
		}
		sk.conn = c
		return true
	})
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// Listen binds a listening socket on port, like socket+bind+listen(2).
func (a *API) Listen(port uint16) (*Socket, error) {
	ln, err := a.tcp.Listen(port)
	if err != nil {
		return nil, err
	}
	return &Socket{api: a, ln: ln}, nil
}

// Accept waits for an inbound connection, like accept(2).
func (sk *Socket) Accept(ctx exec.Context) (*Socket, error) {
	if sk.ln == nil {
		return nil, fmt.Errorf("sockets: accept on a non-listening socket")
	}
	out := &Socket{api: sk.api}
	err := sk.api.runOnCAB(ctx, "accept", func(ct exec.Context) bool {
		out.conn = sk.ln.Accept(ct)
		return out.conn != nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Send queues data on the connection, like send(2). From a host process
// the bytes cross the VME bus once, into the TCP send-request mailbox.
func (sk *Socket) Send(ctx exec.Context, data []byte) error {
	if sk.conn == nil {
		return fmt.Errorf("sockets: send on an unconnected socket")
	}
	sk.conn.Send(ctx, data)
	return nil
}

// Recv returns the next chunk of received data, like recv(2); nil means
// the peer closed (EOF). Host callers poll the mapped receive mailbox —
// the no-system-call fast path.
func (sk *Socket) Recv(ctx exec.Context) []byte {
	if sk.conn == nil {
		return nil
	}
	var m *mailbox.Msg
	if ctx.IsHost() {
		m = sk.conn.RecvPoll(ctx)
	} else {
		m = sk.conn.Recv(ctx)
	}
	if m == nil {
		return nil
	}
	out := make([]byte, m.Len())
	m.Read(ctx, 0, out)
	sk.conn.RecvDone(ctx, m)
	return out
}

// Close shuts the connection down, like close(2).
func (sk *Socket) Close(ctx exec.Context) error {
	if sk.conn == nil {
		return nil
	}
	return sk.api.runOnCAB(ctx, "close", func(ct exec.Context) bool {
		sk.conn.Close(ct)
		return true
	})
}
