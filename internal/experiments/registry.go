package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload/scenario"
)

// Runner names one reproducible experiment.
type Runner struct {
	Name string
	Desc string
	// Run runs the experiment at test scale (quick) or at benchmark
	// scale.
	Run func(quick bool) ([]*stats.Table, error)
}

// one lifts a single-table experiment to the registry's table list.
func one(f func(quick bool) (*stats.Table, error)) func(bool) ([]*stats.Table, error) {
	return func(quick bool) ([]*stats.Table, error) {
		t, err := f(quick)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// All lists every experiment, in the paper's order.
func All() []Runner {
	return []Runner{
		{"fig3", "single-machine AKV/s: Spark vs strawman INA vs ASK", one(fig3)},
		{"fig7", "computation offload: ASK data channels vs PreAggr threads", one(fig7)},
		{"table1", "traffic reduction on production-corpus stand-ins", one(table1)},
		{"fig8a", "goodput vs tuples per packet", one(fig8a)},
		{"fig8b", "non-blank tuple slots per packet per dataset", one(fig8b)},
		{"fig9", "hot-key prioritization vs aggregator:key ratio", one(fig9)},
		{"fig10", "WordCount JCT: Spark/SHM/RDMA/ASK", one(fig10)},
		{"fig11", "mapper/reducer task completion times", one(fig11)},
		{"fig12", "distributed training throughput: ASK/ATP/SwitchML/HostPS", one(fig12)},
		{"fig13a", "throughput and bandwidth overhead vs data channels", one(fig13a)},
		{"fig13b", "per-sender throughput vs sender count", one(fig13b)},
		{"ablation-swap", "shadow-copy swap threshold sweep", one(ablationSwap)},
		{"ablation-window", "sliding-window size under loss", one(ablationWindow)},
		{"ablation-congestion", "AIMD congestion window vs fixed window under incast", one(ablationCongestion)},
		{"multirack", "§7 multi-rack: absorption vs remote-sender fraction", one(multiRack)},
		{"ablation-medium", "coalesced medium-key group width", one(ablationMedium)},
		{"scenarios", "scenario corpus: AA hit rate / promotions / goodput per shape", one(func(quick bool) (*stats.Table, error) { return scenarios(quick) })},
		{"chaos", "fault injection: switch failover + degradation vs golden run", one(rackChaos)},
		{"fabric-chaos", "fat-tree fault injection: spine re-election + leaf recovery vs golden run", one(fabricChaos)},
		{"tenancy", "multi-tenant fabric: weighted goodput fairness + AA pool utilization", multiTenant},
		{"corruption", "link corruption sweep: CRC32C quarantine cost vs goodput", one(corruption)},
	}
}

// ByName finds an experiment runner: a registry entry, or "scenario:<name>"
// for the corpus sweep restricted to one scenario. The scenario name is
// validated here so the CLI fails fast instead of mid-sweep.
func ByName(name string) (Runner, error) {
	if scen, ok := strings.CutPrefix(name, "scenario:"); ok {
		if _, err := scenario.ByName(scen); err != nil {
			return Runner{}, err
		}
		return Runner{name, "scenario corpus sweep restricted to " + scen,
			one(func(quick bool) (*stats.Table, error) { return scenarios(quick, scen) })}, nil
	}
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
