// Package main uses part of nectar/internal/deadexp/lib from a non-test
// file, the way cmd/ and examples/ use the module's internal packages.
package main

import (
	"fmt"

	"nectar/internal/deadexp/lib"
)

// Shower is satisfied by lib.Box.Show.
type Shower interface{ Show() string }

func main() {
	b := &lib.Box{Read: lib.Used()}
	fmt.Println(b.Size())
}
