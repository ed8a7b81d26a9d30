// Package agreement is the shardsafety agreement corpus: the SAME
// construct — an event handler mutating its neighbour shard through the shared grid —
// must be flagged statically by the analyzer (the want comment below) and
// dynamically by the race detector when two shards' handlers run
// concurrently (TestAgreementRace runs Race under `go run -race`).
package agreement

import "sync"

// Shard is the toy per-rack state root.
//
//askcheck:shard
type Shard struct {
	id    int
	Count int
}

// shards is the shared grid both handlers reach into.
var shards [2]*Shard

func init() {
	shards[0], shards[1] = &Shard{id: 0}, &Shard{id: 1}
}

// HandleEvent bumps the shard's own counter and — the defect under
// certification — its neighbour's, straight through the shared array.
func (s *Shard) HandleEvent() {
	s.Count++
	shards[1-s.id].Count++ // want `shardsafety: shard context of Shard touches package-level var shards` `shardsafety: shard context of Shard obtains Shard shard state by indexing a shared container`
}

// Race drives both shards' handlers on their own goroutines — the
// schedule the parallel DES would use. The cross-shard increment above
// then races: both goroutines write both counters with no ordering.
func Race() {
	var wg sync.WaitGroup
	for i := range shards {
		s := shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				s.HandleEvent()
			}
		}()
	}
	wg.Wait()
}

// Serial runs the same handlers one shard at a time — the serial DES
// schedule, under which the very same cross-shard access is benign.
func Serial() int {
	shards[0].Count, shards[1].Count = 0, 0
	for _, s := range shards {
		for n := 0; n < 1000; n++ {
			s.HandleEvent()
		}
	}
	return shards[0].Count + shards[1].Count
}

// --- The repaired version: the same cross-shard mutation through the
// declared mailbox boundary (ISSUE 10). Deliver buffers the neighbour
// increment instead of applying it, and the coordinator drains the inbox
// at the window barrier — the schedule the real kernel's InjectCall uses.
// The analyzer must NOT flag HandleEventMailboxed (no want comment), and
// the race detector must stay quiet on the parallel mailboxed schedule:
// together they pin that the certification covers the mailbox boundary,
// not just the absence of cross-shard code.

// inboxes holds each shard's pending neighbour increments. Guarded by
// inboxMu; only Deliver and the barrier drain touch it.
//
//askcheck:shared
var inboxes [2][]int

//askcheck:shared
var inboxMu sync.Mutex

// Deliver is the declared cross-shard hand-off: it buffers one increment
// for the target shard without touching the target's state root.
//
//askcheck:mailbox
func Deliver(target int) {
	inboxMu.Lock()
	inboxes[target] = append(inboxes[target], 1)
	inboxMu.Unlock()
}

// HandleEventMailboxed is the repaired handler: own state directly, the
// neighbour only through the mailbox. The analyzer accepts it as-is.
func (s *Shard) HandleEventMailboxed() {
	s.Count++
	Deliver(1 - s.id)
}

// ParallelMailboxed drives both shards' repaired handlers on their own
// goroutines, then drains the inboxes at the barrier — single-threaded,
// like the group coordinator between windows. Race-free under -race.
func ParallelMailboxed() int {
	shards[0].Count, shards[1].Count = 0, 0
	inboxes[0], inboxes[1] = nil, nil
	var wg sync.WaitGroup
	for i := range shards {
		s := shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				s.HandleEventMailboxed()
			}
		}()
	}
	wg.Wait()
	for i, inbox := range inboxes {
		for _, d := range inbox {
			shards[i].Count += d
		}
	}
	return shards[0].Count + shards[1].Count
}
