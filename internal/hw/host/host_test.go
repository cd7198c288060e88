package host

import (
	"bytes"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *Host, *cab.CAB) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	c := cab.NewSized(k, cost, 1, 0)
	h := New(k, cost, "host1", c)
	return k, h, c
}

func TestWriteReadCAB(t *testing.T) {
	k, h, c := rig(t)
	buf := c.Data.Slice(0, 64)
	var back [64]byte
	var elapsed sim.Duration
	h.Run("proc", func(th *threads.Thread) {
		start := th.Now()
		h.WriteCAB(th, buf, bytes.Repeat([]byte{0x5A}, 64))
		h.ReadCAB(th, buf, back[:])
		elapsed = sim.Duration(th.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if back[0] != 0x5A || back[63] != 0x5A {
		t.Error("data did not round-trip through CAB memory")
	}
	// 2 x 16 words of PIO at 1us each = 32us of bus time (plus dispatch).
	if elapsed < 32*sim.Microsecond {
		t.Errorf("64B write+read took %v; VME cost missing", elapsed)
	}
}

func TestCABInterruptDelivery(t *testing.T) {
	k, h, c := rig(t)
	got := false
	h.OnCABInterrupt(func(th *threads.Thread) { got = true })
	k.After(10*sim.Microsecond, func() { c.InterruptHost() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("CAB interrupt never reached the host driver")
	}
}

func TestInterruptWithoutHandlerFails(t *testing.T) {
	k, _, c := rig(t)
	k.After(0, func() { c.InterruptHost() })
	if err := k.Run(); err == nil {
		t.Error("interrupt with no driver handler did not fail")
	}
}

func TestProcessesArePreemptedByDriver(t *testing.T) {
	// A long-running user process must not delay the CAB driver's
	// interrupt handler (interrupts preempt application priority).
	k, h, c := rig(t)
	var isrAt sim.Time
	h.OnCABInterrupt(func(th *threads.Thread) { isrAt = th.Now() })
	h.Run("spinner", func(th *threads.Thread) {
		th.Compute(10 * sim.Millisecond)
	})
	k.After(100*sim.Microsecond, func() { c.InterruptHost() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if isrAt == 0 || isrAt > sim.Time(200*sim.Microsecond) {
		t.Errorf("driver ISR ran at %v; not preempting the user process", isrAt)
	}
}

// TestTouchChargesBus: a host process touching mapped CAB memory pays
// one VME word per access on its bus.
func TestTouchChargesBus(t *testing.T) {
	k, h, _ := rig(t)
	var elapsed sim.Duration
	h.Run("proc", func(th *threads.Thread) {
		start := th.Now()
		h.Bus.PIO(th, 10)
		elapsed = sim.Duration(th.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 10*sim.Microsecond {
		t.Errorf("10-word touch took %v", elapsed)
	}
}
