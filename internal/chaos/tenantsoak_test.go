package chaos

import (
	"testing"

	"repro/internal/core"
)

func TestTenantSoakVictimKilledOthersExact(t *testing.T) {
	// A hand-written hole far longer than the retry budget: the victim's
	// stream must abort, and every other tenant must finish exactly.
	cfg := Config{Kind: TenantKill, Seed: 41, Retries: 2}.withDefaults()
	scale, err := GoldenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{{Kind: EvLinkBlackhole, Host: core.HostID(killTenants), StartMil: 200, DurMil: 500}}
	out := Run(cfg, sched, scale)
	if !out.OK() {
		t.Fatalf("isolation violated: %s", out.Violation)
	}
	if !out.VictimAborted {
		t.Fatal("a hole of half the task length against 2 retries must abort the victim")
	}
}

func TestTenantSoakEndToEnd(t *testing.T) {
	rep, err := Soak(Config{Kind: TenantKill, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("tenant soak failed:\n%s", rep)
	}
	if len(rep.Schedule) == 0 {
		t.Fatal("generated schedule is empty; the soak exercised nothing")
	}
}

func TestTenantSoakDeterministic(t *testing.T) {
	cfg := Config{Kind: TenantKill, Seed: 13}.withDefaults()
	scale, err := GoldenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := GenerateSchedule(cfg)
	a := Run(cfg, sched, scale)
	b := Run(cfg, sched, scale)
	if a != b {
		t.Fatalf("two identical replays diverged: %+v vs %+v", a, b)
	}
}

func TestShrinkWithMinimizes(t *testing.T) {
	// ShrinkWith against a synthetic predicate: the failure needs exactly
	// the two host-3 events, so everything else must be elided.
	sched := Schedule{
		{Kind: EvHostStall, Host: 1, StartMil: 100, DurMil: 50},
		{Kind: EvLinkBlackhole, Host: 3, StartMil: 200, DurMil: 50},
		{Kind: EvLinkDegrade, Host: 2, StartMil: 300, DurMil: 50},
		{Kind: EvLinkBlackhole, Host: 3, StartMil: 400, DurMil: 50},
		{Kind: EvSwitchOutage, StartMil: 500, DurMil: 50},
	}
	fails := func(s Schedule) bool {
		n := 0
		for _, ev := range s {
			if ev.Host == 3 {
				n++
			}
		}
		return n >= 2
	}
	min, runs := ShrinkWith(fails, sched)
	if len(min) != 2 || min[0].Host != 3 || min[1].Host != 3 {
		t.Fatalf("shrunk to %v, want the two host-3 events", min)
	}
	if runs == 0 {
		t.Fatal("replay count not tracked")
	}
	if !fails(min) {
		t.Fatal("shrunk schedule no longer fails")
	}
}

func TestShrinkWithEmptyScheduleFailure(t *testing.T) {
	min, _ := ShrinkWith(func(Schedule) bool { return true }, Schedule{
		{Kind: EvSwitchOutage, StartMil: 100, DurMil: 50},
	})
	if len(min) != 0 {
		t.Fatalf("base-config failure must shrink to the empty schedule, got %v", min)
	}
}

func TestGenerateTenantScheduleWindowsDisjoint(t *testing.T) {
	sched := GenerateSchedule(Config{Kind: TenantKill, Seed: 3, Events: 5})
	for i := 1; i < len(sched); i++ {
		prevEnd := sched[i-1].StartMil + sched[i-1].DurMil
		if sched[i].StartMil < prevEnd {
			t.Fatalf("windows %d and %d overlap: %v", i-1, i, sched)
		}
	}
	if len(sched) == 0 {
		t.Fatal("no windows drawn")
	}
}
