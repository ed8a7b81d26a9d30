package chaos_test

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestFabricSoakPassesUnderRandomFaults runs the full fat-tree soak — spine
// and leaf outages, link black-holes, corruption bursts over two tenants —
// and requires every invariant (per-tenant conservation, full recovery,
// epoch coherence, transport sanity) to hold against analytic ground truth.
func TestFabricSoakPassesUnderRandomFaults(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := chaos.Soak(chaos.Config{
			Kind: chaos.FabricOutage, Seed: seed,
			Base: netsim.Fault{CorruptProb: 1e-3},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Passed() {
			t.Fatalf("seed %d failed:\n%s", seed, rep)
		}
		if len(rep.Schedule) == 0 {
			t.Fatalf("seed %d: empty schedule soaked nothing", seed)
		}
	}
}

// TestFabricSoakIsDeterministic replays one config twice: schedules and
// outcomes (elapsed virtual time, replay and retransmit counts, corruption
// tallies) must be byte-identical.
func TestFabricSoakIsDeterministic(t *testing.T) {
	cfg := chaos.Config{Kind: chaos.FabricOutage, Seed: 4, Base: netsim.Fault{CorruptProb: 5e-4}}
	r1, err := chaos.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := chaos.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != r2.Outcome {
		t.Fatalf("identical fabric soak configs diverged:\n%+v\n%+v", r1.Outcome, r2.Outcome)
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

// TestGenerateFabricScheduleRespectsConstraints checks the draw invariants:
// time-sorted events inside the timeline, switch-tier outages globally
// non-overlapping with valid fabric addresses, and host faults only on
// sender hosts (leaves 1+) without per-host overlap.
func TestGenerateFabricScheduleRespectsConstraints(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := chaos.Config{Kind: chaos.FabricOutage, Seed: seed, Events: 8}
		sched := chaos.GenerateSchedule(cfg)
		if len(sched) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		spines, leaves, tenants := 2, 3, 2 // withDefaults
		var lastStart int64 = -1
		var outages []chaos.Event
		perHost := make(map[int][]chaos.Event)
		for _, ev := range sched {
			if ev.StartMil < lastStart {
				t.Fatalf("seed %d: schedule not time-sorted", seed)
			}
			lastStart = ev.StartMil
			if ev.StartMil < 50 || ev.StartMil+ev.DurMil > 1150 {
				t.Fatalf("seed %d: event outside timeline: %s", seed, ev)
			}
			switch ev.Kind {
			case chaos.EvSpineOutage:
				if _, ok := netsim.SpineIndex(ev.Addr, spines); !ok {
					t.Fatalf("seed %d: spine outage with bad address: %s", seed, ev)
				}
				outages = append(outages, ev)
			case chaos.EvLeafOutage:
				if _, ok := netsim.LeafIndex(ev.Addr, leaves); !ok {
					t.Fatalf("seed %d: leaf outage with bad address: %s", seed, ev)
				}
				outages = append(outages, ev)
			case chaos.EvSwitchOutage:
				t.Fatalf("seed %d: rack-only event kind in a fabric schedule: %s", seed, ev)
			default:
				// Host IDs are leaf-major: leaf = id / hostsPerLeaf, and the
				// fabric soak runs one host per tenant per leaf.
				leaf := int(ev.Host) / tenants
				if leaf < 1 || leaf >= leaves {
					t.Fatalf("seed %d: host fault on non-sender host %d: %s", seed, ev.Host, ev)
				}
				perHost[int(ev.Host)] = append(perHost[int(ev.Host)], ev)
			}
		}
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
		check(outages, "switch-tier outages")
		for _, evs := range perHost {
			check(evs, "host faults")
		}
	}
}

// TestFabricReproducerCarriesTopologyFlags pins the reproducer contract: the
// one-liner must replay on the right topology, so it has to carry the
// fat-tree flags alongside the seed — a reproducer that omits them would
// replay a rack soak and "pass".
func TestFabricReproducerCarriesTopologyFlags(t *testing.T) {
	rep := chaos.Report{Cfg: chaos.Config{
		Kind: chaos.FabricOutage, Seed: 7, Events: 5, Spines: 3, Leaves: 4, Tuples: 1000,
		Base: netsim.Fault{CorruptProb: 2e-3},
	}}
	line := rep.Reproducer()
	for _, want := range []string{
		"asksim -soak", "-topology fattree", "-soak.seed=7", "-soak.events=5",
		"-soak.spines=3", "-soak.leaves=4", "-soak.tuples=1000", "-soak.corrupt=0.002",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("reproducer %q lacks %q", line, want)
		}
	}
	// The multi-rack row names its topology and rack count the same way.
	mr := chaos.Report{Cfg: chaos.Config{Kind: chaos.MultiRackOutage, Seed: 3, Events: 6, Leaves: 5, Tuples: 1000}}
	for _, want := range []string{"-topology multirack", "-soak.seed=3", "-soak.leaves=5"} {
		if !strings.Contains(mr.Reproducer(), want) {
			t.Errorf("reproducer %q lacks %q", mr.Reproducer(), want)
		}
	}
	// A failing report prints the reproducer and its minimal schedule.
	rep.Outcome.Violation = "synthetic"
	rep.Shrunk = chaos.Schedule{{Kind: chaos.EvSpineOutage, Addr: netsim.SpineAddr(1), StartMil: 100, DurMil: 80}}
	out := rep.String()
	if !strings.Contains(out, "reproduce with: "+line) {
		t.Fatalf("failing report lacks the reproducer line:\n%s", out)
	}
	if !strings.Contains(out, "spine-outage") {
		t.Fatalf("failing report lacks the shrunken schedule:\n%s", out)
	}
}

// TestFabricSpineOutageScheduleReplays replays a handcrafted two-outage
// schedule (one spine, one leaf) at a realistic scale and checks the outcome
// invariants directly — the soak path without the random draw.
func TestFabricSpineOutageScheduleReplays(t *testing.T) {
	cfg := chaos.Config{Kind: chaos.FabricOutage, Seed: 11}
	sched := chaos.Schedule{
		{Kind: chaos.EvSpineOutage, Addr: netsim.SpineAddr(0), StartMil: 300, DurMil: 150},
		{Kind: chaos.EvLeafOutage, Addr: netsim.LeafAddr(2), StartMil: 600, DurMil: 150},
	}
	scale, err := chaos.GoldenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := chaos.Run(cfg, sched, scale)
	if !out.OK() {
		t.Fatalf("handcrafted schedule violated an invariant: %s", out.Violation)
	}
	out2 := chaos.Run(cfg, sched, scale)
	if out != out2 {
		t.Fatalf("schedule replay diverged:\n%+v\n%+v", out, out2)
	}
}

// TestMultiRackSoak is the multi-rack row of the kinds table end to end: its
// schedules draw TOR outages (the receiver's rack included) and host faults
// on sender hosts only, and the soak passes with replay evidence, i.e. TOR
// outages really hit the stream.
func TestMultiRackSoak(t *testing.T) {
	senders := map[core.HostID]bool{1: true, 3: true, 5: true} // withDefaults: 3 racks of 2, second host sends
	outageAt := make(map[int]int)
	for seed := int64(0); seed < 20; seed++ {
		for _, ev := range chaos.GenerateSchedule(chaos.Config{Kind: chaos.MultiRackOutage, Seed: seed, Events: 8}) {
			switch ev.Kind {
			case chaos.EvLeafOutage:
				rack, ok := netsim.LeafIndex(ev.Addr, 3)
				if !ok {
					t.Fatalf("seed %d: TOR outage with bad address: %s", seed, ev)
				}
				outageAt[rack]++
			case chaos.EvSpineOutage, chaos.EvSwitchOutage:
				t.Fatalf("seed %d: the forwarding core cannot crash, yet the schedule has %s", seed, ev)
			default:
				if !senders[ev.Host] {
					t.Fatalf("seed %d: host fault on non-sender host %d: %s", seed, ev.Host, ev)
				}
			}
		}
	}
	if outageAt[0] == 0 || outageAt[1]+outageAt[2] == 0 {
		t.Fatalf("20 seeds never crashed both the receiver's TOR and a sender's: %v", outageAt)
	}
	// Seeds 20, 55 and 180 crash the receiver's TOR before the task's first
	// region allocation lands: Submit must take the re-attach path (bounded
	// retry on *core.DegradedError, then host-only) instead of failing the
	// task with "alloc-region degraded", as it did until the two paths were
	// made one (hostd.allocRegion).
	var replays int64
	for _, cfg := range []chaos.Config{{Seed: 2}, {Seed: 4}, {Seed: 20}, {Seed: 55}, {Seed: 180}} {
		cfg.Kind, cfg.Base = chaos.MultiRackOutage, netsim.Fault{CorruptProb: 1e-3}
		rep, err := chaos.Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("multi-rack soak failed:\n%s", rep)
		}
		replays += rep.Outcome.Replays
	}
	if replays == 0 {
		t.Fatal("no replays across the multi-rack soaks: no TOR outage hit a stream")
	}
}
