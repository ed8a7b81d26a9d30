package chaos_test

// Soak-harness tests: the acceptance criteria of the integrity work.
//
//  1. With CorruptProb=1e-3 on every link (an honest, verification-enabled
//     build), a full end-to-end run still converges to the exact analytic
//     ground truth, and the quarantine counters prove the corruption path
//     was actually exercised.
//  2. A deliberately-broken build — checksum verification disabled via the
//     core.Config.DisableChecksumVerify fault hook — is caught by the soak
//     harness, which shrinks the failing schedule and prints a reproducer
//     seed.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

func TestSoakPassesUnderRandomFaults(t *testing.T) {
	// A multi-seed soak of the honest build: random-walk schedules of
	// outages, black-holes, loss, corruption bursts, and stalls must never
	// violate an invariant. Seeds 6, 9 and 20 draw back-to-back switch
	// outages that once triggered a replay double-count (see
	// TestBackToBackOutagesDoNotDoubleCount); they stay pinned here.
	for _, seed := range []int64{1, 2, 3, 6, 9, 20} {
		rep, err := chaos.Soak(chaos.Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Passed() {
			t.Fatalf("seed %d soak failed:\n%s", seed, rep)
		}
		if len(rep.Schedule) == 0 {
			t.Fatalf("seed %d drew an empty schedule", seed)
		}
		if rep.Outcome.Retransmits == 0 {
			t.Fatalf("seed %d: schedule injected faults but no retransmissions happened:\n%s", seed, rep.Schedule)
		}
	}
}

func TestSoakConvergesUnderContinuousCorruption(t *testing.T) {
	// Acceptance criterion 1: CorruptProb=1e-3 on every link for the whole
	// run; the result must still be exact and the corrupt-drop counters
	// must show the integrity path fired.
	rep, err := chaos.Soak(chaos.Config{
		Seed: 11,
		Base: netsim.Fault{CorruptProb: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("soak under continuous corruption failed:\n%s", rep)
	}
	if dropped := rep.Outcome.SwitchCorruptDropped + rep.Outcome.HostCorruptDropped; dropped == 0 {
		t.Fatal("CorruptProb=1e-3 run quarantined nothing; corruption path not exercised")
	}
	if rep.Outcome.Retransmits == 0 {
		t.Fatal("quarantined frames were never retransmitted")
	}
}

func TestSoakCatchesDisabledChecksumVerification(t *testing.T) {
	// Acceptance criterion 2: the broken build. With verification disabled,
	// corrupted bytes decode into garbage tuples and the conservation
	// invariant must trip; the harness must shrink the schedule and print a
	// reproducer. The heavy base corruption rate makes every corrupt burst
	// redundant, so the shrinker should reduce the schedule drastically —
	// often to empty (the base config alone fails).
	//
	// The fabric rows pin the routing-miss policy: a damaged Flow.Host
	// becomes a switch-generated ACK's destination, which the leaves and
	// spines must count and drop like the rack does. Before they did, each of
	// these seeds panicked in leafPort.SwitchSend ("sending to unattached
	// destination"); a broken build is a violation — or, by luck, a pass —
	// never a panic.
	for _, cfg := range []chaos.Config{
		{Seed: 5, Base: netsim.Fault{CorruptProb: 5e-3}},
		{Kind: chaos.FabricOutage, Seed: 1, Base: netsim.Fault{CorruptProb: 1e-2}},
		{Kind: chaos.FabricOutage, Seed: 2, Base: netsim.Fault{CorruptProb: 1e-2}},
		{Kind: chaos.FabricOutage, Seed: 3, Base: netsim.Fault{CorruptProb: 1e-2}},
		{Kind: chaos.MultiRackOutage, Seed: 1, Base: netsim.Fault{CorruptProb: 1e-2}},
		{Kind: chaos.MultiRackOutage, Seed: 2, Base: netsim.Fault{CorruptProb: 1e-2}},
		{Kind: chaos.MultiRackOutage, Seed: 3, Base: netsim.Fault{CorruptProb: 1e-2}},
	} {
		cfg.DisableChecksumVerify = true
		rep, err := chaos.Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed() {
			if cfg.Kind == chaos.Rack {
				t.Fatal("soak passed on a build with checksum verification disabled")
			}
			continue
		}
		if rep.Shrunk == nil {
			t.Fatal("failing soak did not produce a shrunken schedule")
		}
		if len(rep.Shrunk) >= len(rep.Schedule) && len(rep.Schedule) > 1 {
			t.Fatalf("shrinker removed nothing: %d of %d events kept", len(rep.Shrunk), len(rep.Schedule))
		}
		if rep.Runs < 2 {
			t.Fatalf("shrinking ran only %d replays", rep.Runs)
		}
		out := rep.String()
		if want := fmt.Sprintf("reproduce with: asksim -soak -soak.seed=%d", cfg.Seed); !strings.Contains(out, want) || !strings.Contains(out, "-soak.break-checksums") {
			t.Fatalf("report lacks reproducer line:\n%s", out)
		}
		if !strings.Contains(out, "minimal failing schedule") {
			t.Fatalf("report lacks shrunken schedule:\n%s", out)
		}
		// The shrunken schedule must still fail on replay — that is what makes
		// it a reproducer.
		if out := chaos.Run(cfg, rep.Shrunk, rep.Scale); out.OK() {
			t.Fatal("shrunken schedule does not reproduce the violation")
		}
	}
}

func TestSoakIsDeterministic(t *testing.T) {
	cfg := chaos.Config{Seed: 4, Base: netsim.Fault{CorruptProb: 5e-4}}
	r1, err := chaos.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := chaos.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != r2.Outcome {
		t.Fatalf("identical soak configs diverged:\n%+v\n%+v", r1.Outcome, r2.Outcome)
	}
	if len(r1.Schedule) != len(r2.Schedule) {
		t.Fatalf("schedule lengths diverged: %d vs %d", len(r1.Schedule), len(r2.Schedule))
	}
	for i := range r1.Schedule {
		if r1.Schedule[i] != r2.Schedule[i] {
			t.Fatalf("event %d diverged: %s vs %s", i, r1.Schedule[i], r2.Schedule[i])
		}
	}
}

func TestGenerateScheduleRespectsConstraints(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := chaos.Config{Seed: seed, Events: 8, Senders: 3}
		sched := chaos.GenerateSchedule(cfg)
		if len(sched) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		var lastStart int64 = -1
		for _, ev := range sched {
			if ev.StartMil < lastStart {
				t.Fatalf("seed %d: schedule not time-sorted", seed)
			}
			lastStart = ev.StartMil
			if ev.StartMil < 50 || ev.StartMil+ev.DurMil > 1150 {
				t.Fatalf("seed %d: event outside timeline: %s", seed, ev)
			}
			if ev.Kind != chaos.EvSwitchOutage {
				if ev.Host < 1 || int(ev.Host) > cfg.Senders {
					t.Fatalf("seed %d: event targets non-sender host: %s", seed, ev)
				}
			}
		}
		// Switch outages must not overlap each other; per-host faults must
		// not overlap on the same host.
		check := func(evs []chaos.Event, what string) {
			for i := 0; i < len(evs); i++ {
				for j := i + 1; j < len(evs); j++ {
					a, b := evs[i], evs[j]
					if a.StartMil < b.StartMil+b.DurMil && b.StartMil < a.StartMil+a.DurMil {
						t.Fatalf("seed %d: overlapping %s: %s / %s", seed, what, a, b)
					}
				}
			}
		}
		var outages []chaos.Event
		perHost := make(map[int][]chaos.Event)
		for _, ev := range sched {
			if ev.Kind == chaos.EvSwitchOutage {
				outages = append(outages, ev)
			} else {
				perHost[int(ev.Host)] = append(perHost[int(ev.Host)], ev)
			}
		}
		check(outages, "switch outages")
		for h, evs := range perHost {
			check(evs, "host faults on host "+string(rune('0'+h)))
		}
	}
}

// TestSoakReportsMatchGolden pins "same seeds, same schedules, same
// outcomes" as a standing contract: testdata/soak.golden holds the report
// text (scale, elapsed, evidence counters) of the first rack and fabric
// seeds of `make soak`, generated before the three soak harnesses were
// collapsed into one, and of the first multi-rack seeds, generated when that
// row was added. A diff means a schedule draw, a construction order or the
// simulated datapath moved.
func TestSoakReportsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/soak.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, run := range []struct {
		kind  chaos.Kind
		seeds int64
	}{{chaos.Rack, 4}, {chaos.FabricOutage, 2}, {chaos.MultiRackOutage, 2}} {
		for seed := int64(1); seed <= run.seeds; seed++ {
			rep, err := chaos.Soak(chaos.Config{Kind: run.kind, Seed: seed, Base: netsim.Fault{CorruptProb: 1e-3}})
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString(rep.String())
		}
	}
	if got.String() != string(want) {
		t.Fatalf("soak reports moved off testdata/soak.golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestRunCapsALivelockedSchedule: Run drives the simulation itself — Start,
// a run up to the virtual-time cap, Result — instead of to quiescence, so a
// schedule that never lets the task finish is a verdict, not a hang. A
// sender's link black-holed for far longer than the cap keeps the unbounded
// retransmissions going forever.
func TestRunCapsALivelockedSchedule(t *testing.T) {
	cfg := chaos.Config{Seed: 3, Tuples: 2000}
	scale, err := chaos.GoldenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := chaos.Run(cfg, chaos.Schedule{{Kind: chaos.EvLinkBlackhole, StartMil: 100, DurMil: 1_000_000, Host: 1}}, scale)
	if want := "task still running at the virtual-time cap (livelock)"; out.Violation != want {
		t.Fatalf("violation %q, want %q", out.Violation, want)
	}
}
