package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Tests for the coroutine handoff between the driver and the threads
// (handoff.go): panics surface as errors without reaching the driver,
// Shutdown frees every coroutine, coroutines are reused through the idle
// pool, and a world may be advanced from a different goroutine on each
// step.

// TestHandoffPanicBecomesError checks that a panicking body dies with a
// *PanicError visible through both Err and Join, and that the driver
// loop carries on afterwards: the surviving thread keeps computing and
// a later timer still fires.
func TestHandoffPanicBecomesError(t *testing.T) {
	w := NewWorld(testConfig())
	defer w.Shutdown()
	boom := errors.New("boom")
	lone := w.Spawn("lone", PriorityNormal, func(th *Thread) any {
		th.Compute(vclock.Millisecond)
		panic(boom)
	})
	var joinErr error
	var survivorDone vclock.Time
	w.Spawn("parent", PriorityNormal, func(th *Thread) any {
		child := th.Fork("child", func(c *Thread) any {
			c.Sleep(2 * vclock.Millisecond)
			panic("child boom")
		})
		_, joinErr = th.Join(child)
		th.Compute(5 * vclock.Millisecond)
		survivorDone = th.Now()
		return nil
	})
	fired := false
	w.At(vclock.Time(20*vclock.Millisecond), func() { fired = true })

	if out := w.Run(vclock.Time(vclock.Second)); out != OutcomeQuiescent {
		t.Fatalf("outcome = %v, want quiescent", out)
	}
	var pe *PanicError
	if !errors.As(lone.Err(), &pe) || pe.Thread != "lone" || pe.Value != boom {
		t.Fatalf("lone Err() = %v, want PanicError carrying boom", lone.Err())
	}
	if lone.State() != StateDead {
		t.Fatalf("lone state = %v, want dead", lone.State())
	}
	if !errors.As(joinErr, &pe) || pe.Thread != "child" || pe.Value != "child boom" {
		t.Fatalf("Join error = %v, want PanicError from child", joinErr)
	}
	if survivorDone == 0 || !fired {
		t.Fatalf("driver stalled after the panics: survivor done at %v, timer fired %v", survivorDone, fired)
	}
	if w.LiveThreads() != 0 {
		t.Fatalf("%d live threads after quiescence", w.LiveThreads())
	}
}

// idleCount returns the number of coroutines waiting in the pool.
func idleCount() int {
	p := &idleCoroutines
	p.Lock()
	defer p.Unlock()
	return len(p.free)
}

// busyGoroutines counts goroutines outside the idle coroutine pool.
func busyGoroutines() int { return runtime.NumGoroutine() - idleCount() }

// TestShutdownFreesCoroutines checks that Shutdown frees the coroutine
// of every kind of unfinished thread — never started, blocked for good,
// and killed by fault injection both before and after the kill was
// delivered — so the goroutines outside the idle pool return to their
// baseline.
func TestShutdownFreesCoroutines(t *testing.T) {
	base := busyGoroutines()
	w := NewWorld(testConfig())
	for i := 0; i < 3; i++ {
		w.Spawn("blocked", PriorityNormal, func(th *Thread) any {
			th.Block(BlockMutex)
			return nil
		})
	}
	delivered := w.Spawn("delivered", PriorityNormal, func(th *Thread) any {
		th.Block(BlockMutex)
		return nil
	})
	pending := w.Spawn("pending", PriorityNormal, func(th *Thread) any {
		th.Block(BlockMutex)
		return nil
	})
	w.At(vclock.Time(vclock.Millisecond), func() { w.KillThread(delivered, "crash") })
	if out := w.Run(vclock.Time(10 * vclock.Millisecond)); out != OutcomeDeadlock {
		t.Fatalf("outcome = %v, want deadlock (every survivor blocked)", out)
	}
	if delivered.State() != StateDead || delivered.Err() == nil {
		t.Fatalf("delivered victim: state %v, err %v; want dead with an error", delivered.State(), delivered.Err())
	}
	// Injected but never dispatched again: the kill is still pending.
	w.KillThread(pending, "crash")
	// Spawned after the last Run: never started.
	for i := 0; i < 2; i++ {
		w.Spawn("unstarted", PriorityNormal, func(th *Thread) any { return nil })
	}
	if n := busyGoroutines(); n != base+6 {
		t.Fatalf("%d busy goroutines with 6 unfinished threads, baseline %d", n, base)
	}

	w.Shutdown()
	for _, th := range w.Threads() {
		if th.State() != StateDead {
			t.Errorf("%s not dead after Shutdown", th)
		}
	}
	if n := busyGoroutines(); n != base {
		t.Fatalf("%d busy goroutines after Shutdown, baseline %d", n, base)
	}
}

// TestCoroutinePoolReuse checks that a world takes its threads'
// coroutines from the idle pool instead of creating goroutines, and that
// a coroutine released into a full pool ends.
func TestCoroutinePoolReuse(t *testing.T) {
	body := func(th *Thread) any {
		th.Sleep(vclock.Millisecond)
		return nil
	}
	warm := NewWorld(testConfig())
	for i := 0; i < 4; i++ {
		warm.Spawn("warm", PriorityNormal, body)
	}
	warm.Run(vclock.Time(vclock.Second))
	warm.Shutdown()
	if idleCount() < 4 {
		t.Fatalf("%d idle coroutines after 4 threads ended, want >= 4", idleCount())
	}

	before := runtime.NumGoroutine()
	w := NewWorld(testConfig())
	defer w.Shutdown()
	for i := 0; i < 4; i++ {
		w.Spawn("reuse", PriorityNormal, body)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("spawning 4 threads over a warm pool changed the goroutine count %d -> %d", before, n)
	}
	defer func(max int) { maxIdleCoroutines = max }(maxIdleCoroutines)
	maxIdleCoroutines = idleCount() // full: released coroutines end
	w.Run(vclock.Time(vclock.Second))
	if n := runtime.NumGoroutine(); n != before-4 {
		t.Fatalf("%d goroutines after 4 threads ended into a full pool, want %d", n, before-4)
	}
	if w.LiveThreads() != 0 {
		t.Fatalf("%d live threads", w.LiveThreads())
	}
}

// TestAdvanceFromTwoGoroutines advances one world in turn from the test
// goroutine and a helper goroutine, as sharded cluster advance does, and
// checks the trace matches the same world advanced from one goroutine.
// Run under -race, it proves the handoff publishes the world's state
// between whichever goroutines drive it.
func TestAdvanceFromTwoGoroutines(t *testing.T) {
	build := func() (*World, *trace.Buffer) {
		buf := &trace.Buffer{}
		cfg := testConfig()
		cfg.Trace = buf
		w := NewWorld(cfg)
		for i := 0; i < 3; i++ {
			w.Spawn("worker", PriorityNormal, func(th *Thread) any {
				for j := 0; j < 40; j++ {
					th.Compute(300 * vclock.Microsecond)
					th.Yield()
					th.Sleep(vclock.Duration(1+j%3) * vclock.Millisecond)
				}
				return nil
			})
		}
		return w, buf
	}
	const step = 5 * vclock.Millisecond
	const steps = 40

	ref, refBuf := build()
	defer ref.Shutdown()
	for i := 1; i <= steps; i++ {
		ref.Run(vclock.Time(0).Add(vclock.Duration(i) * step))
	}

	w, buf := build()
	defer w.Shutdown()
	for i := 1; i <= steps; i++ {
		until := vclock.Time(0).Add(vclock.Duration(i) * step)
		if i%2 == 0 {
			w.Run(until)
			continue
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(until)
		}()
		wg.Wait()
	}
	if w.LiveThreads() != 0 {
		t.Fatalf("%d threads still live after %d steps", w.LiveThreads(), steps)
	}
	if !reflect.DeepEqual(buf.Events, refBuf.Events) {
		t.Fatalf("trace differs when advanced from two goroutines (%d vs %d events)", len(buf.Events), len(refBuf.Events))
	}
}
