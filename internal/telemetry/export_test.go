package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the snapshot golden file")

// goldenSet builds a small fixed telemetry set covering every instrument
// kind, so the snapshot golden exercises counters, gauges, gauge funcs,
// histograms (with labels), sampled series, and trace events.
func goldenSet() *Set {
	s := sim.New(1)
	r := NewRegistry()
	set := &Set{Registry: r, Tracer: NewTracer(s.Now, 8), Sampler: NewSampler(s, r, 100*time.Microsecond)}
	r.Counter("switchd.tuples_in", L("task", "1")).Add(1000)
	r.Counter("switchd.tuples_in", L("task", "2")).Add(500)
	r.Counter("hostd.pkts_sent", L("host", "0")).Add(64)
	r.Gauge("switchd.aa_occupancy").Set(37)
	r.GaugeFunc("pisa.passes", func() int64 { return 2 })
	h := r.Histogram("window.rtt_ns", L("flow", "h1/ch0"))
	for _, v := range []int64{0, 1, 5, 16, 17, 100, 1000, 1_000_000} {
		h.Record(v)
	}
	set.Tracer.Emit(CompSwitchd, "shadow_swap", 1, 3, 0)
	set.Tracer.EmitNote(CompChaos, "inject", 0, "switch crash")
	s.Spawn("tick", func(p *sim.Proc) { p.Sleep(250 * time.Microsecond) })
	set.Sampler.Start()
	s.At(sim.Time(0).Add(250*time.Microsecond), set.Sampler.Stop)
	s.Run(0)
	return set
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSet().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Must round-trip as JSON.
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "series", "events"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q section", key)
		}
	}
	checkGolden(t, "snapshot.golden.json", buf.Bytes())
}
