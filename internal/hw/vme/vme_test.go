package vme

import (
	"testing"

	"nectar/internal/model"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func rig() (*sim.Kernel, *threads.Sched, *Bus) {
	k := sim.NewKernel()
	cost := model.Default1990()
	cost.ContextSwitch = 0
	s := threads.New(k, cost, "host")
	return k, s, New(k, cost, "vme0")
}

func TestPIOWordCost(t *testing.T) {
	k, s, b := rig()
	var end sim.Time
	s.Fork("p", threads.SystemPriority, func(th *threads.Thread) {
		b.PIO(th, 10) // 10 words at 1us each
		end = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(10*sim.Microsecond) {
		t.Errorf("10-word PIO took %v, want 10us", end)
	}
}

func TestPIOBytesRoundsUpToWords(t *testing.T) {
	k, s, b := rig()
	var end sim.Time
	s.Fork("p", threads.SystemPriority, func(th *threads.Thread) {
		b.PIOBytes(th, 5) // 2 words
		end = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(2*sim.Microsecond) {
		t.Errorf("5-byte PIO took %v, want 2us", end)
	}
}

func TestBusContention(t *testing.T) {
	// PIO issued while another access holds the bus waits for it.
	k, s, b := rig()
	var pioEnd sim.Time
	k.After(0, func() {
		b.Reserve(1000) // bus busy until 1000us
	})
	s.Fork("p", threads.SystemPriority, func(th *threads.Thread) {
		th.Sleep(100 * sim.Microsecond)
		b.PIO(th, 1)
		pioEnd = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pioEnd < sim.Time(sim.Millisecond) {
		t.Errorf("PIO completed at %v while the bus was held", pioEnd)
	}
}

func TestStats(t *testing.T) {
	k, s, b := rig()
	s.Fork("p", threads.SystemPriority, func(th *threads.Thread) {
		b.PIO(th, 3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// No transfer uses block DMA: host-CAB bytes move by PIO.
	if b.pioWords != 3 || b.dmaBytes != 0 {
		t.Errorf("stats = %d/%d, want 3/0", b.pioWords, b.dmaBytes)
	}
}
