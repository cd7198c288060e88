package nectarine

import (
	"encoding/binary"
	"fmt"

	"nectar/internal/proto/nectar"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
)

// ControlBox is the well-known mailbox ID of every node's Nectarine
// control task, which implements paper §3.5: Nectarine "allows
// applications to create mailboxes and tasks on other hosts or CABs".
const ControlBox wire.MailboxID = 1000

// Control-request opcodes.
const (
	ctlCreateMailbox byte = 'M'
	ctlStartTask     byte = 'T'
)

// RegisterTask makes fn startable by name from remote nodes (closures
// cannot travel over the network, so tasks are registered on the node
// that will run them and started remotely by name).
//
//nectar:api Nectarine's remote-task interface from the paper, covered by the root Nectarine tests
func (a *API) RegisterTask(name string, fn func(ep *Endpoint)) {
	a.tasks[name] = fn
}

// startControl launches the control task serving remote create/start
// requests. Called once from New.
func (a *API) startControl() {
	ctl := a.mrt.CreateWithID(ControlBox, "nectarine.ctl")
	ctl.Serve("nectarine-ctl", threads.SystemPriority, func(ctx exec.Context, m *mailbox.Msg) {
		a.trans.RRP.Reply(ctx, m, a.handleControl(ctx, m.Data()))
		ctl.EndGet(ctx, m)
	})
}

// handleControl executes one control request and builds the reply.
func (a *API) handleControl(ctx exec.Context, req []byte) []byte {
	if len(req) < 1 {
		return []byte{0}
	}
	switch req[0] {
	case ctlCreateMailbox:
		mb := a.mrt.Create(string(req[1:]))
		out := make([]byte, 3)
		out[0] = 1
		binary.BigEndian.PutUint16(out[1:], uint16(mb.ID()))
		return out
	case ctlStartTask:
		name := string(req[1:])
		fn, ok := a.tasks[name]
		if !ok {
			return []byte{0}
		}
		a.RunOnCAB(name, fn)
		return []byte{1}
	}
	return []byte{0}
}

// CreateRemoteMailbox creates a mailbox on another node and returns its
// network-wide address (paper §3.5). The caller can then pass the address
// to transports or remote tasks.
//
//nectar:api Nectarine's remote-task interface from the paper, covered by the root Nectarine tests
func (ep *Endpoint) CreateRemoteMailbox(node wire.NodeID, name string) (wire.MailboxAddr, error) {
	reply, err := ep.control(node, append([]byte{ctlCreateMailbox}, name...))
	if err != nil {
		return wire.MailboxAddr{}, err
	}
	if len(reply) != 3 || reply[0] != 1 {
		return wire.MailboxAddr{}, fmt.Errorf("nectarine: remote mailbox creation refused")
	}
	return wire.MailboxAddr{Node: node, Box: wire.MailboxID(binary.BigEndian.Uint16(reply[1:]))}, nil
}

// StartRemoteTask starts a task registered (by name) on another node's
// Nectarine instance, executing on that node's CAB (paper §3.5).
//
//nectar:api Nectarine's remote-task interface from the paper, covered by the root Nectarine tests
func (ep *Endpoint) StartRemoteTask(node wire.NodeID, name string) error {
	reply, err := ep.control(node, append([]byte{ctlStartTask}, name...))
	if err != nil {
		return err
	}
	if len(reply) != 1 || reply[0] != 1 {
		return fmt.Errorf("nectarine: no task %q registered on node %d", name, node)
	}
	return nil
}

// control performs one request-response exchange with a remote control
// task, lazily creating the caller's control-reply mailbox.
func (ep *Endpoint) control(node wire.NodeID, req []byte) ([]byte, error) {
	if ep.ctlReply == nil {
		ep.ctlReply = ep.NewMailbox("nectarine.ctlreply")
	}
	st := ep.NewSync()
	ep.api.trans.RRP.Call(ep.ctx, wire.MailboxAddr{Node: node, Box: ControlBox}, req, ep.ctlReply, st)
	if s := st.Read(ep.ctx); s != nectar.StatusOK {
		return nil, fmt.Errorf("nectarine: control call to node %d failed with status %d", node, s)
	}
	m := ep.ctlReply.BeginGetPoll(ep.ctx)
	out := make([]byte, m.Len())
	m.Read(ep.ctx, 0, out)
	ep.ctlReply.EndGet(ep.ctx, m)
	return out, nil
}
