// Package sim provides a deterministic discrete-event simulation kernel.
//
// Everything in this repository — the network fabric, the PISA switch model,
// host daemons, and the application baselines — runs on virtual time managed
// by a Simulation. Events are executed in strictly non-decreasing time order,
// with FIFO ordering among events scheduled for the same instant, so a run is
// fully reproducible given the same seed.
//
// Two programming styles are supported:
//
//   - Callback style: schedule closures with At/After and build state
//     machines (used by the network and switch models, and by the host
//     daemon's per-packet work, which runs to completion as chains of
//     events). A chain waits the way a process does, in the same order:
//     Advance is the in-place rule of SleepUntil, Resource.AcquireFunc
//     queues in the same FIFO as Acquire, and Signal.Subscribe runs with the
//     signal's waiting processes.
//   - Process style: Spawn a coroutine-backed Proc that can Sleep, wait on
//     Signals, and acquire Resources, which reads like straight-line code
//     (used by drivers, control and recovery: the daemon's send loop between
//     tasks and its failover replay, mappers, reducers and trainers). A
//     process can hand its per-packet work to a chain and Park until the
//     chain calls its Resumer, which resumes it within the chain's event.
//
// Only one thread of control executes simulation logic at any moment: a
// process is an iter.Pull coroutine that the event loop resumes and that
// parks by switching straight back to it — no channel, no trip through the
// Go scheduler — so no locking is required in model code, and a panic in a
// process body surfaces from Run like one in an event callback.
//
// # Event kernel
//
// The scheduler is engineered for the frame-delivery hot path: a simulated
// 100 Gbps rack pushes tens of millions of events per wall-second through
// it, so per-event heap pointers and closure captures dominate profiles if
// left unchecked (cf. the DPDK/Tofino substrate the paper runs on, which
// engineers exactly these overheads away).
//
//   - Events live by value in an index-addressed store with a free list;
//     steady-state scheduling allocates nothing and recycles event slots.
//   - The priority queue is a hand-rolled binary heap of small {time, seq,
//     index} entries — the ordering key is carried inline, so sift
//     comparisons never chase a pointer, and no container/heap interface
//     boxing occurs.
//   - AtCall/AfterCall schedule a pre-bound func(any) with an argument,
//     letting hot callers (netsim frame delivery) avoid allocating a fresh
//     closure per event. Converting a pointer to `any` does not allocate.
//   - Timers address events as (slot index, generation); recycling a slot
//     bumps its generation, so a stale Timer held across reuse is an inert
//     no-op exactly like the old popped-event semantics.
//
// Ordering is bit-for-bit identical to the previous container/heap kernel:
// events execute in strictly increasing (time, sequence) order and the
// sequence counter is unique per event, so the execution order is a total
// order independent of heap internals.
//
// A process that sleeps until an instant nothing else precedes is not
// scheduled at all: Sleep and SleepUntil move the clock forward in place and
// return without an event or a process switch when the run is serial, the
// wake instant is within Run's limit, and no live event is queued at or
// before it. The wake-up event would have carried a fresh sequence number,
// larger than every queued one, at a time earlier than every queued event's,
// so it would have been the next event popped, and the
// process is the only code that would have run in between; skipping it leaves
// every other event's (time, sequence) order, and so the execution order,
// unchanged. An event already queued at exactly the wake instant still runs
// first: the process parks behind it as before. A callback chain applies the
// same rule through Advance before it schedules its next step, and code about
// to schedule a callback at the current instant through InPlace: when nothing
// live is queued at or before now, it runs the callback inline instead.
//
// A pending event can be marked weak (Timer.SetWeak): it does not keep the run
// going. Run returns once every live queued event is weak, without firing
// them, and the clock stays at the last event it fired; a weak event that
// precedes a strong one fires in its (time, seq) place as usual. A timer that
// usually turns out to be stale — a retransmission timer whose flights were
// all acknowledged — can so stay queued instead of being stopped and re-armed,
// and still not keep the run from ending on time. Everything that looks at the
// queue's head (Advance, the in-place sleep, InPlace, a shard group's windows)
// treats a weak event as live; Pending counts strong events only.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations re-exported for convenience when scheduling.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time as a duration since the start of the run.
func (t Time) String() string { return time.Duration(t).String() }

// event is the payload of one scheduled entry. Events are stored by value in
// Simulation.store and addressed by slot index; gen disambiguates successive
// occupants of the same slot (see Timer).
type event struct {
	// fn is the closure-style callback (At/After).
	fn func()
	// afn+arg are the argument-carrying form (AtCall/AfterCall), used by hot
	// paths to avoid a per-event closure allocation. Exactly one of fn/afn is
	// non-nil while the slot is live.
	afn func(any)
	arg any
	// gen counts occupants of this slot; a Timer whose gen does not match is
	// stale and inert.
	gen uint32
	// live marks the slot as scheduled (between alloc and recycle).
	live bool
	// dead marks a cancelled event awaiting lazy removal at pop time.
	dead bool
	// weak marks a live event that does not keep the run going (Timer.SetWeak).
	weak bool
}

// heapEntry is one priority-queue node. The ordering key (at, seq) is
// carried inline so heap sifts compare without touching the event store.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func heapLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulation is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call New.
//
// In the sharded parallel DES each lane is one Simulation instance. Only the
// lane's own events touch it; another lane reaches it through InjectCall or a
// wake, which are mailboxes during a parallel window (shard.go).
type Simulation struct {
	now     Time
	heap    []heapEntry
	store   []event
	free    []int32
	seq     uint64
	strong  int // scheduled, non-cancelled events that are not weak
	rng     *rand.Rand
	seed    int64
	running bool
	limit   Time // the running Run's limit (<= 0: none), for Advance
	stats   Stats

	// inProc is the process whose body is executing, nil inside a plain
	// event callback; park checks it to reject a blocking call made from
	// anywhere but the process's own body.
	inProc *Proc
	// procs lists every spawned process, for Close.
	procs []*Proc
	// locals holds what Local keeps for the layers above the kernel.
	locals map[any]any

	// Sharded parallel execution (see shard.go). group and lane are fixed at
	// construction: nil/laneRoot for a standalone serial simulation, which
	// therefore takes the exact pre-shard code path everywhere. The window
	// fields are owned by whichever goroutine executes this lane's window;
	// inbox is the cross-lane mailbox, drained at window barriers.
	group       *ShardGroup
	lane        int
	injSeq      uint64
	windowBound Time
	windowStop  bool
	suspended   bool
	start       chan struct{}
	inboxMu     sync.Mutex
	inbox       []inject
}

// Stats counts what the kernel has done so far. The counts depend only on
// the model and its seed — the same numbers on any host — so they can carry
// an event-diet claim where wall-clock timings cannot.
type Stats struct {
	// Fired is the number of event callbacks run.
	Fired uint64
	// Cancelled is the number of stopped timers popped dead off the heap: a
	// Timer.Stop leaves its entry queued until it surfaces, so each costs a
	// push, a sift and a pop without ever firing.
	Cancelled uint64
	// Dispatches is the number of process switches: a Proc resumed from the
	// event loop. Each is also a fired event.
	Dispatches uint64
	// HeapHigh is the event heap's high-water mark, dead entries included.
	HeapHigh int
}

// Stats returns the kernel's counters. On a shard group every lane (and the
// root) counts its own events.
func (s *Simulation) Stats() Stats { return s.stats }

// New returns a Simulation whose random source is seeded with seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed)), seed: seed, lane: laneRoot}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Local returns the value s keeps under key, storing mk() there first if
// there is none: per-run state that a layer above the kernel shares between
// every component built on s, without the kernel knowing its type (netsim
// keeps the run's packet and frame free lists here). key should be a
// comparable value of a type private to that layer.
func (s *Simulation) Local(key any, mk func() any) any {
	v, ok := s.locals[key]
	if !ok {
		if s.locals == nil {
			s.locals = make(map[any]any)
		}
		v = mk()
		s.locals[key] = v
	}
	return v
}

// Rand returns the simulation's deterministic random source. Model code must
// use this source (never the global one) so runs stay reproducible.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// Timer identifies a scheduled event so it can be cancelled. It names the
// event by (store slot, generation): once the event fires or is reaped, the
// slot's generation advances and the Timer becomes inert.
type Timer struct {
	s   *Simulation
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the callback was still pending.
// Stopping an already-fired or already-stopped timer is a no-op.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.store[t.idx]
	if e.gen != t.gen || !e.live || e.dead {
		return false
	}
	e.dead = true
	if !e.weak {
		t.s.strong--
	}
	return true
}

// SetWeak marks the timer's pending event weak, or strong again. A weak event
// does not keep the run going: Run returns, without firing it, once every
// live queued event is weak, and the clock stays at the last event it fired.
// While a strong event is queued a weak one fires in its (time, seq) place as
// usual, and Advance, the in-place sleep and a shard group's windows treat it
// as any live event. Pending counts strong events only. Setting an inert
// timer is a no-op.
func (t Timer) SetWeak(weak bool) {
	if !t.Pending() || t.s.store[t.idx].weak == weak {
		return
	}
	t.s.store[t.idx].weak = weak
	if weak {
		t.s.strong--
	} else {
		t.s.strong++
	}
}

// Pending reports whether the timer's callback has not yet run or been stopped.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.store[t.idx]
	return e.gen == t.gen && e.live && !e.dead
}

// alloc takes a free event slot (or grows the store) and returns its index.
func (s *Simulation) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.store = append(s.store, event{})
	return int32(len(s.store) - 1)
}

// recycle returns a popped event slot to the free list, and takes a live
// strong event off the strong count (a stopped one left it at Stop). Bumping
// gen invalidates every Timer pointing at the old occupant; clearing the
// callback fields drops references so pooled frames and closures do not
// outlive their event.
func (s *Simulation) recycle(idx int32) {
	e := &s.store[idx]
	if !e.dead && !e.weak {
		s.strong--
	}
	e.gen++
	e.live, e.dead, e.weak = false, false, false
	e.fn, e.afn, e.arg = nil, nil, nil
	s.free = append(s.free, idx)
}

// schedule is the common body of At and AtCall.
func (s *Simulation) schedule(t Time, fn func(), afn func(any), arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	idx := s.alloc()
	e := &s.store[idx]
	e.fn, e.afn, e.arg = fn, afn, arg
	e.live = true
	s.strong++
	s.heapPush(heapEntry{at: t, seq: s.seq, idx: idx})
	s.seq++
	return Timer{s: s, idx: idx, gen: e.gen}
}

// At schedules fn to run at time t. Scheduling in the past is an error;
// scheduling at the current time runs fn after all previously scheduled
// events for this instant.
func (s *Simulation) At(t Time, fn func()) Timer {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now.
func (s *Simulation) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// AtCall schedules fn(arg) to run at time t. It is the allocation-free
// alternative to At for hot paths: fn is typically a long-lived pre-bound
// function (e.g. a link's delivery adapter) and arg a pointer, so no closure
// is materialized per event.
func (s *Simulation) AtCall(t Time, fn func(any), arg any) Timer {
	return s.schedule(t, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d from now (see AtCall).
func (s *Simulation) AfterCall(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtCall(s.now.Add(d), fn, arg)
}

// Run executes events until no strong event is queued (every one left, if
// any, is weak: see Timer.SetWeak) or the virtual clock would pass limit
// (limit <= 0 means no limit). It returns the virtual time at which the run
// ended.
func (s *Simulation) Run(limit Time) Time {
	if s.group != nil {
		if s.lane != laneRoot {
			panic("sim: Run on a shard lane; drive the group's root simulation")
		}
		return s.group.run(limit)
	}
	if s.running {
		panic("sim: Run called re-entrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	s.limit = limit
	for s.strong > 0 {
		top := s.heap[0]
		e := &s.store[top.idx]
		if e.dead {
			s.reap(top.idx)
			continue
		}
		if limit > 0 && top.at > limit {
			s.now = limit
			return s.now
		}
		s.heapPop()
		s.now = top.at
		// Copy the callback out and recycle the slot BEFORE running it: the
		// callback may schedule new events, and the freed slot is then
		// immediately reusable (its generation already advanced).
		fn, afn, arg := e.fn, e.afn, e.arg
		s.recycle(top.idx)
		s.stats.Fired++
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
	}
	return s.now
}

// reap pops the head of the heap, a cancelled event at store slot idx.
func (s *Simulation) reap(idx int32) {
	s.heapPop()
	s.recycle(idx)
	s.stats.Cancelled++
}

// Advance is the in-place rule for code about to wait until t: it reports
// whether that code may carry on at once instead of being woken by an event.
// It may when t is not in the future, or when an event at t would be the next
// one Run pops (package doc, "Event kernel"); the clock then moves to t here.
// When it reports false the caller schedules its continuation at t, which is
// then the event the rule skips when it reports true. The caller must be the
// last code of its event to run before that continuation: a callback chain at
// the point where it would schedule its next step, or a process about to
// sleep (SleepUntil).
func (s *Simulation) Advance(t Time) bool {
	if t <= s.now {
		return true
	}
	if !s.nextAt(t) {
		return false
	}
	s.now = t
	return true
}

// InPlace is the in-place rule at t = now, which Advance answers true without
// looking at the queue: it reports whether an event scheduled now would be
// the next one Run pops — nothing live queued at or before now, a serial
// run — so code about to schedule one may run its body inline
// instead. Like Advance's caller, it must be the last code of its event.
func (s *Simulation) InPlace() bool { return s.nextAt(s.now) }

// nextAt reports whether an event scheduled at t would be the next one Run
// pops. Dead entries at the head are reaped as Run would reap them; a weak
// event is live.
func (s *Simulation) nextAt(t Time) bool {
	if s.group != nil || !s.running || (s.limit > 0 && t > s.limit) {
		return false
	}
	for len(s.heap) > 0 && s.store[s.heap[0].idx].dead {
		s.reap(s.heap[0].idx)
	}
	return len(s.heap) == 0 || s.heap[0].at > t
}

// Pending returns the number of scheduled, non-cancelled strong events: weak
// ones (Timer.SetWeak) keep no run going and are not counted.
func (s *Simulation) Pending() int { return s.strong }

// heapPush inserts an entry and sifts it up.
func (s *Simulation) heapPush(e heapEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	if i >= s.stats.HeapHigh {
		s.stats.HeapHigh = i + 1
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// heapPop removes the minimum entry and sifts the displaced tail down.
func (s *Simulation) heapPop() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && heapLess(s.heap[r], s.heap[l]) {
			least = r
		}
		if !heapLess(s.heap[least], s.heap[i]) {
			break
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}
