package hostd

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestPhaseTableReachesDone walks the transition table from both phases a
// task starts in (with a region, or host-only with Rows < 0): every phase
// reachable that way can still reach done.
func TestPhaseTableReachesDone(t *testing.T) {
	type state struct{ progress, region phase }
	next := func(s state) []state {
		var out []state
		for _, p := range moves[s.progress] {
			out = append(out, state{p, s.region})
		}
		for _, r := range moves[s.region] {
			out = append(out, state{s.progress, r})
		}
		return out
	}
	reach := func(from state) map[state]bool {
		seen := map[state]bool{from: true}
		for queue := []state{from}; len(queue) > 0; queue = queue[1:] {
			for _, n := range next(queue[0]) {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		return seen
	}
	for _, start := range []state{{streaming, held}, {streaming, hostOnly}} {
		for s := range reach(start) {
			ends := false
			for r := range reach(s) {
				ends = ends || r.progress == done
			}
			if !ends {
				t.Errorf("from %s/%s, reachable from %s/%s, no path reaches done",
					phaseNames[s.progress], phaseNames[s.region], phaseNames[start.progress], phaseNames[start.region])
			}
		}
	}
}

// TestEnterChecksTheTable: enter makes exactly the moves the table lists and
// panics on every other move within an axis, naming the task and both phases.
func TestEnterChecksTheTable(t *testing.T) {
	progress := []phase{streaming, finishing, committed, done}
	region := []phase{held, swapping, revoked, draining, drained, hostOnly}
	for _, axis := range [][]phase{progress, region} {
		for _, from := range axis {
			for _, to := range axis {
				tk := &recvTask{d: &Daemon{}, spec: core.TaskSpec{ID: 7}, progress: streaming, region: held, changed: sim.NewSignal(sim.New(1))}
				cur := &tk.progress
				if from >= held {
					cur = &tk.region
				}
				*cur = from
				var got any
				func() {
					defer func() { got = recover() }()
					tk.enter(to)
				}()
				allowed := slices.Contains(moves[from], to)
				want := fmt.Sprintf("hostd: task 7 cannot move from %s to %s", phaseNames[from], phaseNames[to])
				switch {
				case allowed && (got != nil || *cur != to):
					t.Errorf("%s → %s is in the table: panic %v, now %s", phaseNames[from], phaseNames[to], got, phaseNames[*cur])
				case !allowed && got != want:
					t.Errorf("%s → %s is not in the table: panic %v, want %q", phaseNames[from], phaseNames[to], got, want)
				}
			}
		}
	}
}
