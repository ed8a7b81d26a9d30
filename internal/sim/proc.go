package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a coroutine-backed simulation process. A Proc's body runs
// interleaved with the event loop: whenever it blocks (Sleep, Wait, Acquire)
// it schedules its own wake-up and parks, switching straight back to the
// event callback that resumed it — except a sleep whose wake-up would be the
// next event, which advances the clock in place. At most one Proc or event
// callback runs at any moment.
type Proc struct {
	sim  *Simulation
	name string

	// resume, yield and stop are the three ends of the body's iter.Pull
	// coroutine: resume (Pull's next) runs the body until it parks or
	// returns, yield parks it, stop unwinds it (see Close).
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	done   bool

	// dispatchFn is the method value p.dispatch, bound once at Spawn. Every
	// blocking call (Sleep, Wait, Acquire) schedules the proc's own wake-up;
	// caching the bound method avoids materializing a fresh method value —
	// one heap allocation — per block.
	dispatchFn func()
	// timedWaits is WaitTimeout's free list of wait records.
	timedWaits []*timedWait
	// waitTimer is WaitTimeout's one timer, as a window keeps one: while a
	// timed wait (waiting) is in progress it is pending and strong at
	// waitTimerAt, no later than the wait's deadline; when the signal wins it
	// stays queued as a weak event, for the next wait to keep.
	waitTimer     Timer
	waitTimerAt   Time
	waiting       *timedWait
	waitDeadline  Time
	onWaitTimerFn func()
}

// procClosed is the panic value park raises to unwind a body on Close. It
// is private, so no model code can raise or match it.
type procClosed struct{}

// Spawn starts fn as a new process at the current virtual time. The process
// begins executing when the event loop reaches the spawn event. name is used
// in diagnostics only.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	p.dispatchFn = p.dispatch
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Close unwinds a parked body with procClosed; it ends here. Any
		// other panic continues, and Pull re-raises it — value intact — in
		// whoever resumed the body: Run's caller.
		defer func() {
			if r := recover(); r != nil && r != (procClosed{}) {
				panic(r)
			}
		}()
		fn(p)
	})
	s.procs = append(s.procs, p)
	s.At(s.now, p.dispatchFn)
	return p
}

// Close ends every process that has not finished, so a simulation that is
// no longer needed stops pinning its model state: a parked Proc is a
// suspended coroutine — a goroutine to the runtime — which the garbage
// collector never frees. Each process is unwound in spawn order, one at a
// time, on the caller's goroutine: a process that never started is simply
// dropped; a parked one panics out of its blocking call with a private
// value that is recovered at the root of its body, so its deferred calls
// run, as model code always does, with nothing else executing. (Goexit
// would not do: iter.Pull forwards it to the caller of stop.) Processes
// spawned by those deferred calls are closed too. The root of a ShardGroup
// closes its lanes as well. Close must not be called while the simulation
// is running; Run must not be called after it; a second Close is a no-op.
func (s *Simulation) Close() {
	if s.running {
		panic("sim: Close called during Run")
	}
	for i := 0; i < len(s.procs); i++ {
		if p := s.procs[i]; !p.done {
			p.done = true
			p.stop()
		}
	}
	s.procs = nil
	if s.group != nil && s.lane == laneRoot {
		s.group.closeLanes()
	}
}

// dispatch switches to the process and returns when it parks or finishes. A
// panic in the body surfaces here, on the event loop's goroutine. It runs in
// event-callback context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.sim.inProc = p
	p.sim.stats.Dispatches++
	_, parked := p.resume()
	p.sim.inProc = nil
	p.done = !parked
}

// park switches back to the event loop and returns when re-dispatched. The
// caller must already have scheduled something that will call p.dispatch.
// Only the process's own body may block: from an event callback or another
// process's body there is nothing to switch away from.
func (p *Proc) park() {
	if p.sim.inProc != p {
		panic(fmt.Sprintf("sim: proc %s blocked outside its own body", p.name))
	}
	if !p.yield(struct{}{}) {
		panic(procClosed{}) // the simulation was closed
	}
}

// Park suspends the process with nothing scheduled to wake it: the caller
// has already handed Resumer's function to the callback code that will
// resume it. Like every blocking call it may only be made from the
// process's own body.
func (p *Proc) Park() { p.park() }

// Resumer returns the function that resumes the parked process directly,
// within the event that calls it, and returns when the process parks again
// or finishes — the hand-over WaitTimeout's signal wake makes, with no event
// of its own. It is bound once at Spawn, so handing it out allocates
// nothing.
func (p *Proc) Resumer() func() { return p.dispatchFn }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %s sleeping for negative duration %v", p.name, d))
	}
	p.SleepUntil(p.sim.now.Add(d))
}

// SleepUntil suspends the process until virtual time t (no-op if t <= now).
// When its wake-up would be the next event anyway, the clock moves to t in
// place and the process carries on with no event and no switch (package doc,
// "Event kernel").
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now || p.sim.inProc == p && p.sim.Advance(t) {
		return
	}
	p.sim.At(t, p.dispatchFn)
	p.park()
}

// Wait suspends the process until the signal fires.
func (p *Proc) Wait(sg *Signal) {
	sg.subscribeFrom(p.sim, p.dispatchFn)
	p.park()
}

// WaitTimeout suspends the process until the signal fires or d elapses,
// reporting whether the signal fired first. Exactly one waker dispatches
// the process; the loser becomes a no-op. The timeout rides the process's one
// wait timer: a pending one set no later than the deadline is kept (it fires,
// finds the deadline still ahead and re-arms for it), so a process that waits
// again and again before its deadlines pays no timer stop per wait.
func (p *Proc) WaitTimeout(sg *Signal, d time.Duration) (fired bool) {
	var w *timedWait
	if n := len(p.timedWaits); n > 0 {
		w, p.timedWaits = p.timedWaits[n-1], p.timedWaits[:n-1]
	} else {
		w = &timedWait{p: p}
		w.onFireFn = w.onFire
	}
	if p.onWaitTimerFn == nil {
		p.onWaitTimerFn = p.onWaitTimer
	}
	w.done, w.fired = false, false
	sg.subscribeFrom(p.sim, w.onFireFn)
	at := p.sim.now.Add(d)
	p.waiting, p.waitDeadline = w, at
	if p.waitTimer.Pending() && p.waitTimerAt <= at {
		p.waitTimer.SetWeak(false)
	} else {
		p.waitTimer.Stop()
		p.waitTimerAt, p.waitTimer = at, p.sim.At(at, p.onWaitTimerFn)
	}
	p.park()
	return w.fired
}

// timedWait is one WaitTimeout call's subscription to its signal, which
// dispatches the process unless the wait timer already has. Its callback is
// bound once per record, and a record is reused once its subscription has
// run, so a process that waits with a timeout again and again allocates
// nothing after its first waits. A timed-out wait's record stays with the
// signal until that fires.
type timedWait struct {
	p           *Proc
	done, fired bool
	onFireFn    func()
}

func (w *timedWait) onFire() {
	if !w.done {
		w.done, w.fired = true, true
		w.p.waiting = nil
		w.p.waitTimer.SetWeak(true)
		w.p.dispatch()
	}
	w.p.timedWaits = append(w.p.timedWaits, w)
}

// onWaitTimer is the wait timer firing: a no-op when no timed wait is in
// progress (the signal won), a re-arm when the wait's deadline is still
// ahead, and the wait's timeout otherwise.
func (p *Proc) onWaitTimer() {
	w := p.waiting
	if w == nil {
		return
	}
	if p.sim.now < p.waitDeadline {
		p.waitTimerAt, p.waitTimer = p.waitDeadline, p.sim.At(p.waitDeadline, p.onWaitTimerFn)
		return
	}
	p.waiting, w.done = nil, true
	p.dispatch()
}

// waiter is one pending wake-up: the callback plus the simulation whose
// event loop must run it. In a sharded group a process can wait on a
// signal or resource owned by another lane; routing the wake to the
// waiter's home lane (rather than the owner's) keeps every process on the
// lane it was spawned on.
type waiter struct {
	fn   func()
	home *Simulation
}

// Signal is a broadcast condition: Fire schedules every pending subscriber
// at the current time and clears the list. Subscribing after Fire waits for
// the next Fire. Fire must be called from the event context of the
// simulation the signal is bound to.
type Signal struct {
	sim     *Simulation
	waiters []waiter
}

// NewSignal returns a Signal bound to s.
func NewSignal(s *Simulation) *Signal { return &Signal{sim: s} }

// Subscribe registers fn to run once, as its own event at the instant of the
// next Fire, in subscription order with the processes waiting on sg: the
// callback form of Wait.
func (sg *Signal) Subscribe(fn func()) { sg.subscribeFrom(sg.sim, fn) }

// subscribeFrom registers fn to be scheduled on the next Fire, on home's
// event loop, so cross-lane waiters wake on their own lane.
func (sg *Signal) subscribeFrom(home *Simulation, fn func()) {
	sg.waiters = append(sg.waiters, waiter{fn: fn, home: home})
}

// Fire schedules all pending subscribers to run at the current virtual time.
func (sg *Signal) Fire() {
	ws := sg.waiters
	for _, w := range ws {
		sg.sim.wakeTo(w.home, w.fn)
	}
	// wakeTo only schedules, so nothing subscribed during the loop: keep the
	// backing array for the next Wait, but not the fired closures.
	clear(ws)
	sg.waiters = ws[:0]
}

// Resource is a counting semaphore with a FIFO wait queue, used to model
// contended capacity such as CPU cores. Acquire blocks the calling process
// until a unit is available.
type Resource struct {
	sim      *Simulation
	capacity int
	inUse    int
	queue    []waiter
	// busy accounting for utilization metrics
	busyNs     int64
	lastChange Time
}

// NewResource returns a Resource with the given capacity.
func NewResource(s *Simulation, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

func (r *Resource) account() {
	now := r.sim.now
	r.busyNs += int64(r.inUse) * int64(now-r.lastChange)
	r.lastChange = now
}

// BusyTime returns the aggregate unit-busy time accumulated so far
// (e.g. 2 units held for 3s contributes 6s).
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return time.Duration(r.busyNs)
}

// Acquire blocks p until one unit is available, then holds it.
func (r *Resource) Acquire(p *Proc) {
	if !r.acquire(waiter{fn: p.dispatchFn, home: p.sim}) {
		p.park()
		// Ownership was transferred to us by Release before dispatch.
	}
}

// AcquireFunc is the callback form of Acquire: it takes a unit and reports
// true when one is free; otherwise it queues fn in the same FIFO as waiting
// processes and reports false, and fn runs, holding the unit, as its own
// event at the instant a Release hands it over.
func (r *Resource) AcquireFunc(fn func()) bool { return r.acquire(waiter{fn: fn, home: r.sim}) }

// acquire takes a free unit, or queues w for the next Release.
func (r *Resource) acquire(w waiter) bool {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		return true
	}
	r.queue = append(r.queue, w)
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.queue) > 0 {
		// Hand the unit directly to the next waiter: inUse stays constant.
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.sim.wakeTo(next.home, next.fn)
		return
	}
	r.account()
	r.inUse--
}

// Use runs the critical section modelled as holding one unit for d of
// virtual time: acquire, sleep d, release.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}
