// Conservative parallel sharded execution.
//
// A ShardGroup partitions one simulated system into K shard lanes plus a
// root lane. Each lane is a full Simulation — its own clock, event store,
// heap, and rng — owning a disjoint slice of the model state (one rack or
// leaf block of the fabric). No lane's events may touch another lane's state
// except through the mailboxes and the control rendezvous below; the sharded
// goldens under the race detector are what hold that. The group executes the
// union of the lanes under a conservative barrier protocol:
//
//   - Lookahead. Every cross-lane interaction travels over a declared cut
//     edge (a netsim link whose delivery is a mailbox) with a minimum
//     model delay L = propagation + switch latency. An event executing at
//     time t can therefore affect another lane no earlier than t+L.
//
//   - Windows. The group repeatedly computes T = the earliest pending
//     event across all lanes and executes the window [T, T+L): every lane
//     processes its own events inside the window on its own goroutine, in
//     exactly the per-lane order the serial kernel would use. By the
//     lookahead argument no event executed in the window can schedule
//     into another lane inside the window, so lanes are independent and
//     the merge of their executions is equivalent to a legal serial
//     schedule.
//
//   - Mailboxes. Cross-lane schedules produced during a window (cut-link
//     frame deliveries, wakes of the root driver) are buffered in the
//     target lane's inbox and drained at the barrier, sorted by
//     (time, source lane, source sequence) — a total order independent of
//     goroutine interleaving, which is what makes parallel runs
//     bit-reproducible.
//
//   - Serial windows. The root lane hosts drivers and orchestrators
//     (task submission, chaos injection, result collection) whose calls
//     reach into many shards synchronously with zero lookahead. Any
//     window containing a root event is executed serially on one
//     goroutine — a K-way merge over the lanes in (time, lane, seq)
//     order with all lane clocks slaved to the merge — which reproduces
//     the serial kernel's semantics exactly for control-plane phases.
//     Steady-state streaming has an empty root lane and runs parallel.
//
//   - Wake fences. When a shard event wakes a root-lane process (a task
//     completing fires the driver's signal), the firing lane stops its
//     window at that point. The driver then runs in the next (serial)
//     window and observes the firing shard exactly as the serial kernel
//     would have: nothing past the wake has executed there.
//
//   - Control rendezvous. Synchronous cross-shard control RPCs issued
//     from shard context (a fat-tree daemon registering flows at every
//     spine during failover recovery) call EnterControlFrom: the calling
//     lane suspends its window, the barrier completes, and the RPC runs
//     exclusively — deterministically ordered by lane — before the next
//     window starts.
//
// Barrier versus null messages: with K ≤ NumCPU lanes inside one address
// space, a central min-reduction costs microseconds per window while a
// null-message protocol is O(K²) channel traffic per lookahead interval
// and — more important here — has no natural point at which the
// zero-lookahead root lane can interleave. The barrier's global windows
// double as the serial fallback seam, which is what keeps parallel runs
// byte-identical to the serial golden. See DESIGN.md "Parallel DES".
package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// laneRoot is the lane index of the root simulation.
const laneRoot = -1

// inject is one buffered cross-lane schedule. The key (at, srcLane,
// srcSeq) totally orders a window's injects independently of goroutine
// interleaving.
type inject struct {
	at      Time
	srcLane int32
	srcSeq  uint64
	fn      func()
	afn     func(any)
	arg     any
}

// ShardGroupStats counts scheduler activity, for the sharded tests and
// bench/'s fattree-sharded counts.
type ShardGroupStats struct {
	Windows         int64 // total conservative windows executed
	ParallelWindows int64 // windows fanned out to lane workers
	InlineWindows   int64 // single-busy-lane windows run on the caller
	SerialWindows   int64 // windows containing root-lane events (K-way merge)
	Injects         int64 // cross-lane mailbox deliveries drained
	ControlRendezvs int64 // EnterControlFrom rendezvous served
	WakeFences      int64 // windows cut short by a cross-lane wake
}

// ShardGroup couples one root Simulation with K shard lanes under the
// conservative barrier protocol above. Construct with NewShardGroup,
// attach model state to the lanes, then drive the whole group through the
// root's Run exactly as in the serial case.
type ShardGroup struct {
	root  *Simulation
	lanes []*Simulation
	look  Time

	// parallel is true while lane workers may be executing a window. It is
	// written by the coordinating goroutine strictly before worker release
	// and after worker join (the channel handshakes order the accesses).
	parallel bool

	// done receives a lane index whenever a lane's window completes or
	// suspends for a control rendezvous.
	done chan int

	// ctrlReqs holds lanes suspended in EnterControlFrom, granted in lane
	// order after the window joins. ctrlMu guards concurrent registration
	// from several suspending lanes in one window.
	ctrlMu   sync.Mutex
	ctrlReqs []*ctrlReq

	// busyScratch is reused across windows to list busy lanes without
	// allocating.
	busyScratch []*Simulation

	stats ShardGroupStats
}

// ctrlReq is one suspended control rendezvous.
type ctrlReq struct {
	lane  *Simulation
	grant chan struct{}
}

// NewShardGroup wraps root with shards shard lanes. lookahead is the
// minimum cross-lane model delay (the topology partitioner computes it
// from the cut links) and must be positive before the group runs. Lane
// rngs are derived deterministically from the root seed, so a sharded run
// is fully reproducible for a given (seed, shards).
func NewShardGroup(root *Simulation, shards int, lookahead time.Duration) *ShardGroup {
	if root.group != nil {
		panic("sim: simulation already belongs to a shard group")
	}
	if shards < 1 {
		panic("sim: shard group needs at least one lane")
	}
	g := &ShardGroup{root: root, look: Time(lookahead)}
	root.group = g
	root.lane = laneRoot
	for i := 0; i < shards; i++ {
		// Golden-ratio seed spreading: distinct streams per lane, stable
		// across runs. Fault-free runs never draw from lane rngs on the
		// hot path, so shard count cannot perturb fault-free results.
		l := New(root.seed + int64(i+1)*-0x61c8864680b583eb)
		l.group = g
		l.lane = i
		g.lanes = append(g.lanes, l)
	}
	return g
}

// Lookahead returns the conservative window width.
func (g *ShardGroup) Lookahead() time.Duration { return time.Duration(g.look) }

// Lane returns shard lane i's simulation; model state for shard i must be
// constructed against it.
func (g *ShardGroup) Lane(i int) *Simulation { return g.lanes[i] }

// Lanes returns the shard count.
func (g *ShardGroup) Lanes() int { return len(g.lanes) }

// Stats returns a copy of the scheduler counters.
func (g *ShardGroup) Stats() ShardGroupStats { return g.stats }

// laneKey orders simulations inside a serial window: shard lanes by
// index, the root last. A root event at time t must run after shard
// events at t that were pending when the root was woken (the wake fence
// ended the firing lane's window exactly there), which the root-last rule
// reproduces.
func (g *ShardGroup) laneKey(s *Simulation) int {
	if s.lane == laneRoot {
		return len(g.lanes)
	}
	return s.lane
}

// sims enumerates lanes then root (allocation-free iteration helper).
func (g *ShardGroup) each(f func(*Simulation)) {
	for _, l := range g.lanes {
		f(l)
	}
	f(g.root)
}

// drainInjects moves every inbox into its lane's heap, in the
// deterministic (time, source lane, source seq) order.
func (g *ShardGroup) drainInjects() {
	g.each(func(s *Simulation) {
		s.inboxMu.Lock()
		q := s.inbox
		s.inbox = nil
		s.inboxMu.Unlock()
		if len(q) == 0 {
			return
		}
		sort.Slice(q, func(i, j int) bool {
			if q[i].at != q[j].at {
				return q[i].at < q[j].at
			}
			if q[i].srcLane != q[j].srcLane {
				return q[i].srcLane < q[j].srcLane
			}
			return q[i].srcSeq < q[j].srcSeq
		})
		for _, in := range q {
			if in.at < s.now {
				panic(fmt.Sprintf("sim: inject at %v into lane %d already at %v", in.at, s.lane, s.now))
			}
			if in.fn != nil {
				s.At(in.at, in.fn)
			} else {
				s.AtCall(in.at, in.afn, in.arg)
			}
		}
		g.stats.Injects += int64(len(q))
	})
}

// minNext returns the earliest pending event time across all lanes.
func (g *ShardGroup) minNext() (Time, bool) {
	var best Time
	found := false
	g.each(func(s *Simulation) {
		if t, ok := s.peekNext(); ok && (!found || t < best) {
			best, found = t, true
		}
	})
	return best, found
}

// anyStrong reports whether a strong event is queued on any lane: the group's
// run ends, as the serial one does, once every queued event is weak.
func (g *ShardGroup) anyStrong() bool {
	n := 0
	g.each(func(s *Simulation) { n += s.Pending() })
	return n > 0
}

// maxNow returns the latest lane clock.
func (g *ShardGroup) maxNow() Time {
	m := g.root.now
	for _, l := range g.lanes {
		if l.now > m {
			m = l.now
		}
	}
	return m
}

// syncNowAll advances every lane clock to at least t (never backward).
func (g *ShardGroup) syncNowAll(t Time) {
	g.each(func(s *Simulation) {
		if s.now < t {
			s.now = t
		}
	})
}

// run is the group scheduler; Simulation.Run on the root delegates here.
// Semantics match the serial Run: execute until quiescent or the clock
// would pass limit (limit <= 0: no limit).
//
// The coordinator touches every lane, which is sound because it runs only
// between windows, when no lane worker is executing: it is what serializes
// cross-shard access.
func (g *ShardGroup) run(limit Time) Time {
	r := g.root
	if r.running {
		panic("sim: Run called re-entrantly")
	}
	if g.look <= 0 {
		panic("sim: shard group Run with no lookahead")
	}
	r.running = true
	defer func() { r.running = false }()
	g.startWorkers()
	defer g.stopWorkers()
	for {
		g.drainInjects()
		if !g.anyStrong() {
			break
		}
		t, _ := g.minNext()
		if limit > 0 && t > limit {
			g.syncNowAll(limit)
			return limit
		}
		safe := t + g.look
		if limit > 0 && safe > limit {
			// Events at exactly limit still run (serial Run stops only when
			// the head is strictly past limit).
			safe = limit + 1
		}
		g.stats.Windows++
		if g.needsMerge(safe) {
			g.runSerialWindow(safe)
		} else {
			g.runParallelWindow(safe)
		}
		g.grantControl()
	}
	g.syncNowAll(g.maxNow())
	return r.now
}

// closeLanes ends the unfinished processes of every shard lane; the root's
// Close delegates here. Like run, this is the coordinator's side of the
// fence: Close requires a group that is not running, so no lane is executing.
func (g *ShardGroup) closeLanes() {
	for _, l := range g.lanes {
		l.Close()
	}
}

// needsMerge reports whether the window must run serially: the root lane has
// an event inside it, or a shard lane whose events are all weak does. Such a
// lane cannot tell on its own whether a strong event follows its weak ones
// anywhere in the group, which decides whether they fire; the merge can.
func (g *ShardGroup) needsMerge(safe Time) bool {
	merge := false
	g.each(func(s *Simulation) {
		t, ok := s.peekNext()
		merge = merge || ok && t < safe && (s.lane == laneRoot || s.Pending() == 0)
	})
	return merge
}

// runSerialWindow executes every lane's events below safe on the calling
// goroutine, merged in (time, lane, seq) order with all clocks slaved to
// the merge point — the exact-semantics fallback for windows where the
// zero-lookahead root lane is active or a lane holds weak events only. Like
// the serial Run, it stops once no strong event is queued anywhere.
func (g *ShardGroup) runSerialWindow(safe Time) {
	g.stats.SerialWindows++
	for g.anyStrong() {
		var pick *Simulation
		var at Time
		g.each(func(s *Simulation) {
			t, ok := s.peekNext()
			if !ok || t >= safe {
				return
			}
			if pick == nil || t < at || (t == at && g.laneKey(s) < g.laneKey(pick)) {
				pick, at = s, t
			}
		})
		if pick == nil {
			return
		}
		// Slave every clock to the merge so synchronous cross-shard calls
		// (driver touching a daemon, chaos touching a link) observe and
		// schedule at the merge time on any lane.
		g.syncNowAll(at)
		pick.execOne()
	}
}

// runParallelWindow executes the window on the lane workers (or inline
// when at most one lane has events inside it).
func (g *ShardGroup) runParallelWindow(safe Time) {
	busy := g.busyLanes(safe)
	switch len(busy) {
	case 0:
		return
	case 1:
		// One busy lane: run its window inline — no handshake, and since
		// no other lane executes, cross-lane schedules may land directly
		// (they are ordered exactly as a drain of this lane's inbox).
		g.stats.InlineWindows++
		l := busy[0]
		l.windowBound = safe
		l.windowStop = false
		l.window()
		if l.windowStop {
			g.stats.WakeFences++
		}
		return
	}
	g.stats.ParallelWindows++
	g.parallel = true
	for _, l := range busy {
		l.windowBound = safe
		l.windowStop = false
		l.start <- struct{}{}
	}
	for n := len(busy); n > 0; n-- {
		<-g.done
	}
	g.parallel = false
	for _, l := range busy {
		if l.windowStop && !l.suspended {
			g.stats.WakeFences++
		}
	}
}

// busyLanes returns the shard lanes with events inside the window.
func (g *ShardGroup) busyLanes(safe Time) []*Simulation {
	busy := g.busyScratch[:0]
	for _, l := range g.lanes {
		if t, ok := l.peekNext(); ok && t < safe {
			busy = append(busy, l)
		}
	}
	g.busyScratch = busy
	return busy
}

// grantControl serves the control rendezvous queue: each suspended lane
// resumes exclusively, in lane order, with the group in serial phase.
func (g *ShardGroup) grantControl() {
	if len(g.ctrlReqs) == 0 {
		return
	}
	reqs := g.ctrlReqs
	g.ctrlReqs = nil
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].lane.lane < reqs[j].lane.lane })
	for _, req := range reqs {
		g.stats.ControlRendezvs++
		close(req.grant)
		// The lane finishes the suspended event (and the rest of its
		// window) before signalling done.
		<-g.done
		req.lane.suspended = false
	}
}

// startWorkers launches one goroutine per lane for the duration of a run.
func (g *ShardGroup) startWorkers() {
	g.done = make(chan int, len(g.lanes))
	for i, l := range g.lanes {
		l.start = make(chan struct{})
		// The channel is passed by value: a worker from a previous run that
		// has not yet observed its close must not read the field being
		// reassigned here.
		go g.worker(i, l, l.start, g.done)
	}
}

// stopWorkers terminates the per-run worker goroutines.
func (g *ShardGroup) stopWorkers() {
	for _, l := range g.lanes {
		close(l.start)
	}
}

// worker executes lane windows on demand until its start channel closes.
func (g *ShardGroup) worker(i int, l *Simulation, start <-chan struct{}, done chan<- int) {
	for range start {
		l.window()
		done <- i
	}
}

// EnterControlFrom suspends lane s's window for an exclusive cross-shard
// control section and returns the release function. Call it (on the
// calling shard's simulation) around synchronous control-plane RPCs that
// must touch foreign shard state — e.g. a fat-tree daemon registering a
// flow at every spine. Outside a parallel window it is a no-op: the
// group is already single-threaded and every lane is quiescent.
//
// The calling goroutine blocks until every other lane has finished the
// current window; rendezvous are granted in deterministic lane order, so
// results do not depend on goroutine interleaving.
func (g *ShardGroup) EnterControlFrom(s *Simulation) func() {
	if g == nil || !g.parallel || s.lane == laneRoot {
		return func() {}
	}
	// Stop this lane's window after the current event: the rest of it
	// must not run before the exclusive section completes.
	s.windowStop = true
	s.suspended = true
	req := &ctrlReq{lane: s, grant: make(chan struct{})}
	g.ctrlMu.Lock()
	g.ctrlReqs = append(g.ctrlReqs, req)
	g.ctrlMu.Unlock()
	// Count this lane's window as complete so the barrier can close, then
	// wait for the exclusive grant.
	g.done <- s.lane
	<-req.grant
	return func() {}
}

// --- Simulation-side shard hooks ----------------------------------------
//
// Everything below is only reachable when the simulation belongs to a
// ShardGroup (group != nil); standalone simulations never touch it, which
// is the serial-seam guarantee the goldens pin.

// Group returns the shard group this simulation belongs to (nil for a
// standalone serial simulation).
func (s *Simulation) Group() *ShardGroup { return s.group }

// ShardLane returns the lane index of this simulation within its group,
// or -1 for the root (and for standalone simulations).
func (s *Simulation) ShardLane() int { return s.lane }

// peekNext returns the time of the earliest live event, reaping cancelled
// heads. Called only from barrier context (no worker executing this lane).
func (s *Simulation) peekNext() (Time, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if !s.store[top.idx].dead {
			return top.at, true
		}
		s.reap(top.idx)
	}
	return 0, false
}

// execOne pops and executes the head event, which the caller has verified
// to be live. Body is identical to the serial Run loop's execute step; the
// strong count is kept by recycle.
func (s *Simulation) execOne() {
	top := s.heap[0]
	e := &s.store[top.idx]
	s.heapPop()
	s.now = top.at
	// Copy the callback out and recycle the slot BEFORE running it (same
	// rationale as in Run).
	fn, afn, arg := e.fn, e.afn, e.arg
	s.recycle(top.idx)
	s.stats.Fired++
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// window executes this lane's events strictly below windowBound, in the
// exact per-lane (time, seq) order the serial kernel uses. It returns
// early on a wake fence (windowStop), and when the lane holds no
// strong event of its own: a weak event left behind is decided by the next
// window, a serial one (needsMerge).
func (s *Simulation) window() {
	for !s.windowStop && s.Pending() > 0 {
		if at, ok := s.peekNext(); !ok || at >= s.windowBound {
			return
		}
		s.execOne()
	}
}

// enqueueInject buffers one cross-lane schedule in this lane's inbox.
func (s *Simulation) enqueueInject(in inject) {
	s.inboxMu.Lock()
	s.inbox = append(s.inbox, in)
	s.inboxMu.Unlock()
}

// InjectCall schedules fn(arg) at time t on this simulation on behalf of
// code executing in src's event context. It is the cross-lane counterpart
// of AtCall — the delivery primitive for cut links (netsim mailbox
// rewiring). Same-lane or ungrouped calls degrade to plain AtCall, so
// callers need no mode check. During a parallel window the schedule is
// buffered and drained at the barrier in deterministic (time, source
// lane, source seq) order; t must respect the group lookahead (t at or
// beyond the window bound), which the cut-link delay guarantees by
// construction.
func (s *Simulation) InjectCall(src *Simulation, t Time, fn func(any), arg any) {
	if s == src || src.group == nil || src.group != s.group {
		s.AtCall(t, fn, arg)
		return
	}
	g := src.group
	if g.parallel {
		if t < src.windowBound {
			panic(fmt.Sprintf("sim: inject at %v violates lookahead (window bound %v)", t, src.windowBound))
		}
		s.enqueueInject(inject{at: t, srcLane: int32(src.lane), srcSeq: src.injSeq, afn: fn, arg: arg})
		src.injSeq++
		return
	}
	// Serial phase (construction, serial window, inline window, control
	// rendezvous): schedule directly. The lookahead argument still bounds t
	// at or above the target's clock; a violation here means the declared
	// cut delay is wrong, so fail loudly rather than reorder the past.
	if t < s.now {
		panic(fmt.Sprintf("sim: inject at %v into lane %d already at %v", t, s.lane, s.now))
	}
	s.AtCall(t, fn, arg)
}

// wakeTo schedules fn at the current time on the waiter's home
// simulation. It is the cross-lane-aware form of At(now, fn) used by
// Signal.Fire and Resource.Release: same-home wakes take the exact legacy
// path; a cross-lane wake fences the firing lane's window (so the woken
// root driver observes this shard exactly at the fire point) and routes
// through the target's mailbox during parallel windows.
//
// Fire/Release must be invoked from s's own event context — true for all
// model code, where signals and resources are owned by the lane that
// fires them, with the root driver as the only cross-lane waiter.
func (s *Simulation) wakeTo(home *Simulation, fn func()) {
	if home == s || s.group == nil || home.group != s.group {
		s.At(s.now, fn)
		return
	}
	g := s.group
	if s.lane != laneRoot {
		// Conservative fence: nothing past the wake may run on this lane
		// until the waiter has been dispatched (next window).
		s.windowStop = true
		if g.parallel {
			if home != g.root {
				panic("sim: cross-shard wake of a non-root process during a parallel window")
			}
			home.enqueueInject(inject{at: s.now, srcLane: int32(s.lane), srcSeq: s.injSeq, fn: fn})
			s.injSeq++
			return
		}
	}
	// Serial phase: direct scheduling. Clocks are slaved together inside
	// serial windows; during a control rendezvous the target may sit
	// slightly ahead (it finished the window), so clamp to its clock —
	// the wake cannot land in its past.
	at := s.now
	if home.now > at {
		at = home.now
	}
	home.At(at, fn)
}
