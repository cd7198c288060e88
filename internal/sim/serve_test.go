package sim

import (
	"fmt"
	"strings"
	"testing"
)

// testServer serves items queued with put. Its step takes one if there
// is one and otherwise waits for put's Resume; Handle records when and
// where it ran, then blocks for hold.
type testServer struct {
	t       *testing.T
	k       *Kernel
	p       *Proc
	items   int
	waiting bool
	hold    Duration
	handled []Time
	panics  bool
}

// serve starts a server on k and has its step called once at time 0, as
// a scheduler dispatching it would.
func serve(t *testing.T, k *Kernel, name string, hold Duration) *testServer {
	s := &testServer{t: t, k: k, hold: hold}
	s.p = k.Serve(name, s)
	k.At(0, s.p.Resume)
	return s
}

func (s *testServer) Step() bool {
	if s.items > 0 {
		s.items--
		return true
	}
	s.waiting = true
	return false
}

func (s *testServer) Handle() {
	if s.k.current != s.p || s.p.co == nil {
		s.t.Errorf("%s: Handle runs outside the server's coroutine", s.p.name)
	}
	if s.panics {
		panic("boom")
	}
	s.handled = append(s.handled, s.k.Now())
	if s.hold > 0 {
		sleep(s.p, s.hold)
	}
}

func (s *testServer) put() {
	s.items++
	if s.waiting {
		s.waiting = false
		s.p.Resume()
	}
}

// TestServeIdleHoldsNoCoroutine: a server that waits for work holds no
// coroutine; it borrows one to handle an item and returns it to the
// kernel's pool once its step waits again.
func TestServeIdleHoldsNoCoroutine(t *testing.T) {
	k := NewKernel()
	s := serve(t, k, "srv", 0)
	if err := k.RunFor(5); err != nil {
		t.Fatal(err)
	}
	if r, n := k.Resumes(), len(k.coros); r != 0 || n != 0 || s.p.co != nil {
		t.Fatalf("idle server: %d resumes, %d pooled coroutines; want none", r, n)
	}
	// The start, the dispatching event and its wake-up.
	if d := k.Dispatched(); d != 3 {
		t.Errorf("dispatched %d events, want 3", d)
	}
	k.At(10, s.put)
	k.At(20, s.put)
	k.At(20, s.put)
	if err := k.RunFor(20); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10, 20, 20}; !equalTimes(s.handled, want) {
		t.Errorf("handled at %v, want %v", s.handled, want)
	}
	// One switch per wake-up that found work: the second item at 20 is
	// taken by the step that follows Handle on the same coroutine.
	if r, n := k.Resumes(), len(k.coros); r != 2 || n != 1 || s.p.co != nil {
		t.Errorf("after serving: %d resumes, %d pooled coroutines, bound %v; want 2, 1, none", r, n, s.p.co != nil)
	}
}

// TestServePoolGrows: servers blocked in Handle at once each hold a
// coroutine, so the pool grows to the most in use at one time, up to
// maxIdleCoros idle ones; the others end when given back. Later servers
// and Go Procs reuse the pooled ones.
func TestServePoolGrows(t *testing.T) {
	k := NewKernel()
	var servers []*testServer
	for i := 0; i < maxIdleCoros+2; i++ {
		s := serve(t, k, fmt.Sprintf("s%d", i), 100)
		k.At(10, s.put)
		k.At(500, s.put)
		servers = append(servers, s)
	}
	if err := k.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if len(s.handled) != 2 {
			t.Fatalf("%s handled %v, want two items", s.p.name, s.handled)
		}
	}
	if n := len(k.coros); n != maxIdleCoros {
		t.Errorf("%d coroutines in the pool, want %d", n, maxIdleCoros)
	}
	ran := false
	k.Go("late", func(p *Proc) { ran = true })
	if err := k.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if n := len(k.coros); !ran || n != maxIdleCoros {
		t.Errorf("after a Go Proc ran (%v): %d coroutines in the pool, want %d", ran, n, maxIdleCoros)
	}
}

// TestServeDeadlockLabel: an idle server is reported as suspended, or by
// its Describer, like a Proc suspended in a Spin.
func TestServeDeadlockLabel(t *testing.T) {
	k := NewKernel()
	serve(t, k, "idle", 0)
	d := serve(t, k, "described", 0)
	d.p.SetDescriber(labelled("cond:box.notEmpty"))
	never := serve(t, k, "never-woken", 0)
	_ = never
	err := k.Run()
	if err == nil {
		t.Fatal("no deadlock reported")
	}
	const want = "sim: deadlock at 0.000us: blocked procs: described@cond:box.notEmpty, idle@suspended, never-woken@suspended"
	if err.Error() != want {
		t.Errorf("deadlock report:\n got %v\nwant %s", err, want)
	}
}

// TestServeHandlePanic: a panic in Handle fails the run like one in a Go
// Proc's body, and the server is finished.
func TestServeHandlePanic(t *testing.T) {
	k := NewKernel()
	s := serve(t, k, "bomb", 0)
	s.panics = true
	k.At(10, s.put)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `sim: proc "bomb" panicked: boom`) {
		t.Fatalf("err = %v, want the handler's panic as a proc panic", err)
	}
	if !s.p.dead {
		t.Error("the server outlived its panic")
	}
}

func equalTimes(a, b []Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
