package udp

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/ip"
	"nectar/internal/rt/mailbox"
	"nectar/internal/sim"
)

func layer(t *testing.T) *Layer {
	t.Helper()
	k := sim.NewKernel()
	c := cab.NewSized(k, model.Default1990(), 1, 0)
	rt := mailbox.NewRuntime(c)
	dl := datalink.NewLayer(c)
	return NewLayer(ip.NewLayer(dl, rt), rt)
}

func TestBindConflicts(t *testing.T) {
	u := layer(t)
	if _, err := u.Bind(53); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Bind(53); err == nil {
		t.Error("double bind succeeded")
	}
	if _, err := u.Bind(54); err != nil {
		t.Errorf("second port refused: %v", err)
	}
}

func TestSocketBoxesDistinct(t *testing.T) {
	u := layer(t)
	s1, _ := u.Bind(1)
	s2, _ := u.Bind(2)
	if s1.Box == s2.Box {
		t.Error("sockets share a mailbox")
	}
}
