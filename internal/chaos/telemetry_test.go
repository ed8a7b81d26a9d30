package chaos_test

// End-to-end telemetry coverage: a telemetry-enabled cluster running a real
// task with a fault injected must export Prometheus text and a JSON snapshot
// that cover every instrumented component (pisa, switchd, hostd, window,
// netsim, chaos), and the trace ring must capture the failover lifecycle.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

func TestTelemetryCoversEveryComponent(t *testing.T) {
	scale := goldenElapsed(t)

	opts := failoverOptions()
	opts.Telemetry = true
	cl, err := ask.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Tel == nil {
		t.Fatal("telemetry-enabled cluster has no Set")
	}
	orch := chaos.New(&cl.Deployment)
	orch.SwitchOutage(ask.TheSwitch, scale/4, scale/4)

	runJob(t, cl, buildTask())

	// Prometheus export must be well-formed and carry at least one metric
	// family from every instrumented component.
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, cl.Tel.Registry); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, family := range []string{
		"ask_pisa_passes",
		"ask_switchd_tuples_in",
		"ask_switchd_aa_occupancy",
		"ask_hostd_tuples_sent",
		"ask_hostd_failovers",
		"ask_hostd_replays_sent",
		"ask_window_sent_pkts",
		"ask_window_rtt_ns",
		"ask_netsim_link_tx_frames",
		"ask_chaos_injections",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("prometheus export missing family %q", family)
		}
	}

	// JSON snapshot must round-trip and carry the same coverage plus the
	// sampler series recorded during the task.
	var js bytes.Buffer
	if err := cl.Tel.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]any   `json:"histograms"`
		Series     map[string]any   `json:"series"`
		Events     []struct {
			Comp string `json:"comp"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	components := map[string]bool{}
	for name := range snap.Counters {
		components[name[:strings.IndexByte(name, '.')]] = true
	}
	for name := range snap.Gauges {
		components[name[:strings.IndexByte(name, '.')]] = true
	}
	for _, c := range []string{"pisa", "switchd", "hostd", "window", "netsim", "chaos"} {
		if !components[c] {
			t.Errorf("snapshot has no counters/gauges for component %q", c)
		}
	}
	if len(snap.Series) == 0 {
		t.Error("snapshot has no sampled series (sampler never ran?)")
	}

	// The injected outage must surface in the trace ring: the chaos inject
	// itself and the hostd failover enter/exit it provoked.
	kinds := map[string]bool{}
	for _, e := range snap.Events {
		kinds[e.Comp+"/"+e.Kind] = true
	}
	for _, k := range []string{"chaos/inject", "hostd/failover_enter", "hostd/failover_exit"} {
		if !kinds[k] {
			t.Errorf("trace ring missing event %q (have %v)", k, kinds)
		}
	}

	// Registry aggregate views must agree with the result the driver saw.
	if deg := time.Duration(cl.Tel.Registry.Max("hostd.degraded_time_ns")); deg == 0 {
		t.Error("registry reports zero degraded time after a switch outage")
	}
	if cl.Tel.Registry.Total("chaos.injections") == 0 {
		t.Error("chaos.injections counter never incremented")
	}
}
