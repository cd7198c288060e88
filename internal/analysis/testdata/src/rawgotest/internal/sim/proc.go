package sim

// The kernel's Procs are coroutines, so proc.go is not an approved
// concurrency surface: a goroutine here is diagnosed like any other.

func launch(body func()) {
	go body() // want `go statement outside the approved concurrency surfaces`
}
