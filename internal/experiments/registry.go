package experiments

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/workload/scenario"
)

// Runner names one reproducible experiment.
type Runner struct {
	Name string
	Desc string
	// Run runs the experiment at its test-scale preset (quick) or its
	// benchmark-scale one.
	Run func(quick bool) ([]*stats.Table, error)
}

// runner is the one adapter from an experiment's documented preset pair and
// its function to a registry entry.
func runner[C any](name, desc string, quick, full func() C, run func(C) ([]*stats.Table, error)) Runner {
	return Runner{Name: name, Desc: desc, Run: func(q bool) ([]*stats.Table, error) {
		if q {
			return run(quick())
		}
		return run(full())
	}}
}

// one lifts a single-table experiment to the registry's table list.
func one[C any](f func(C) (*stats.Table, error)) func(C) ([]*stats.Table, error) {
	return func(cfg C) ([]*stats.Table, error) {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// All lists every experiment, in the paper's order.
func All() []Runner {
	return []Runner{
		runner("fig3", "single-machine AKV/s: Spark vs strawman INA vs ASK", QuickFig3, DefaultFig3, one(Fig3)),
		runner("fig7", "computation offload: ASK data channels vs PreAggr threads", QuickFig7, DefaultFig7, one(Fig7)),
		runner("table1", "traffic reduction on production-corpus stand-ins", QuickTable1, DefaultTable1, one(Table1)),
		runner("fig8a", "goodput vs tuples per packet", QuickFig8a, DefaultFig8a, one(Fig8a)),
		runner("fig8b", "non-blank tuple slots per packet per dataset", QuickFig8b, DefaultFig8b, one(Fig8b)),
		runner("fig9", "hot-key prioritization vs aggregator:key ratio", QuickFig9, DefaultFig9, one(Fig9)),
		runner("fig10", "WordCount JCT: Spark/SHM/RDMA/ASK", QuickFig10, DefaultFig10, one(Fig10)),
		runner("fig11", "mapper/reducer task completion times", QuickFig10, DefaultFig10, one(Fig11)),
		runner("fig12", "distributed training throughput: ASK/ATP/SwitchML/HostPS", QuickFig12, DefaultFig12, one(Fig12)),
		runner("fig13a", "throughput and bandwidth overhead vs data channels", QuickFig13a, DefaultFig13a, one(Fig13a)),
		runner("fig13b", "per-sender throughput vs sender count", QuickFig13b, DefaultFig13b, one(Fig13b)),
		runner("ablation-swap", "shadow-copy swap threshold sweep", QuickAblationSwap, DefaultAblationSwap, one(AblationSwap)),
		runner("ablation-window", "sliding-window size under loss", QuickAblationWindow, DefaultAblationWindow, one(AblationWindow)),
		runner("ablation-congestion", "AIMD congestion window vs fixed window under incast", QuickAblationCongestion, DefaultAblationCongestion, one(AblationCongestion)),
		runner("multirack", "§7 multi-rack: absorption vs remote-sender fraction", QuickMultiRack, DefaultMultiRack, one(MultiRack)),
		runner("ablation-medium", "coalesced medium-key group width", QuickAblationMedium, DefaultAblationMedium, one(AblationMedium)),
		runner("scenarios", "scenario corpus: AA hit rate / promotions / goodput per shape", QuickScenarios, DefaultScenarios, one(Scenarios)),
		runner("chaos", "fault injection: switch failover + degradation vs golden run", QuickChaos, DefaultChaos, one(Chaos)),
		runner("fabric-chaos", "fat-tree fault injection: spine re-election + leaf recovery vs golden run", QuickFabricChaos, DefaultFabricChaos, one(FabricChaos)),
		runner("tenancy", "multi-tenant fabric: weighted goodput fairness + AA pool utilization", QuickTenancy, DefaultTenancy, Tenancy),
		runner("corruption", "link corruption sweep: CRC32C quarantine cost vs goodput", QuickCorruption, DefaultCorruption, one(Corruption)),
	}
}

// ScenarioRunner builds a Runner sweeping a single named corpus scenario
// (cmd/askbench -scenario). The name is validated here so the CLI fails
// fast instead of mid-sweep.
func ScenarioRunner(name string) (Runner, error) {
	if _, err := scenario.ByName(name); err != nil {
		return Runner{}, err
	}
	return runner("scenario:"+name, "scenario corpus sweep restricted to "+name, QuickScenarios, DefaultScenarios,
		one(func(cfg ScenariosConfig) (*stats.Table, error) {
			cfg.Names = []string{name}
			return Scenarios(cfg)
		})), nil
}

// ByName finds an experiment runner.
func ByName(name string) (Runner, error) {
	var names []string
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}
