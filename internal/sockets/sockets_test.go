package sockets

import (
	"testing"

	"nectar/internal/rt/exec"
)

func TestUnconnectedSocketErrors(t *testing.T) {
	sk := &Socket{}
	var ctx exec.Context // the error paths never touch the context
	if err := sk.Send(ctx, []byte("x")); err == nil {
		t.Error("send on unconnected socket succeeded")
	}
	if _, err := sk.Accept(ctx); err == nil {
		t.Error("accept on non-listening socket succeeded")
	}
}
