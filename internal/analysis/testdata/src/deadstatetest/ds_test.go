package deadstatetest

import "testing"

// A test's use keeps nothing alive.
func TestOnly(t *testing.T) {
	if testOnly() != 1 || (conn{}).bumps != 0 {
		t.Fatal("unreachable")
	}
}
