package lib

import "testing"

// A test's use keeps nothing alive.
func TestOnlyUse(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("unreachable")
	}
}
