//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A coroutine runs thread bodies, one after another, in strict
// alternation with the driver: next runs the current thread until it
// calls yield (park) or its body ends, so exactly one of the driver and
// the world's threads runs at a time. A coroutine whose thread has ended
// waits in idleCoroutines for its next thread.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	t     *Thread // the thread being run, or to run at the next step
}

// idleCoroutines is the process-wide pool of coroutines whose thread has
// ended, shared by every world, so a process creates about as many
// coroutines as it ever has threads live at once (plus any that
// overflowed the pool). Ending a coroutine is what the pool avoids: the
// Go runtime never releases an ended coroutine's race-detector state
// (coroexit skips racegoend), and with one coroutine per thread the
// race-enabled internal/experiments tests grew from 0.4 GB to 4.7 GB.
var idleCoroutines struct {
	sync.Mutex
	free []*coroutine
}

// maxIdleCoroutines bounds the pool; a coroutine released into a full
// pool ends. It covers the largest single world the experiments build
// (W1's 10,000 sessions) while capping what an idle process retains.
var maxIdleCoroutines = 1 << 14

// startCoroutine gives t a coroutine, an idle one when the pool has one.
// t's body first runs at the driver's first step.
func (t *Thread) startCoroutine() {
	p := &idleCoroutines
	var c *coroutine
	p.Lock()
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.Unlock()
	if c == nil {
		c = &coroutine{}
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				c.t.main()
				if !yield(struct{}{}) { // idle until the next thread's first step
					return
				}
			}
		})
	}
	c.t = t
	t.co = c
}

// step runs t until it parks again or its body ends; an ended body
// hands its coroutine back to the pool.
func (t *Thread) step() {
	c := t.co
	c.next()
	if !t.finished {
		return
	}
	t.co, c.t = nil, nil
	p := &idleCoroutines
	p.Lock()
	if len(p.free) < maxIdleCoroutines {
		p.free = append(p.free, c)
		c = nil
	}
	p.Unlock()
	if c != nil {
		c.stop()
	}
}
