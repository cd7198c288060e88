package model

import (
	"testing"

	"nectar/internal/sim"
)

func TestFiberTimeMatchesLineRate(t *testing.T) {
	c := Default1990()
	// 1250 bytes at 100 Mbit/s = 100 us.
	if got := c.FiberTime(1250); got != 100*sim.Microsecond {
		t.Errorf("FiberTime(1250) = %v, want 100us", got)
	}
	if c.FiberTime(0) != 0 || c.FiberTime(-5) != 0 {
		t.Error("non-positive sizes must cost nothing")
	}
}

func TestPaperAnchorsPresent(t *testing.T) {
	c := Default1990()
	if c.HubSetup != 700*sim.Nanosecond {
		t.Errorf("HubSetup = %v, paper says 700ns", c.HubSetup)
	}
	if c.ContextSwitch != 20*sim.Microsecond {
		t.Errorf("ContextSwitch = %v, paper says 20us", c.ContextSwitch)
	}
	if c.VMEWord != sim.Microsecond {
		t.Errorf("VMEWord = %v, paper says ~1us", c.VMEWord)
	}
	if c.FiberBytesPerSec != 100_000_000/8 {
		t.Errorf("fiber rate = %d, paper says 100 Mbit/s", c.FiberBytesPerSec)
	}
}
