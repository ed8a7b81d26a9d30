package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("switchd.tuples_in", L("task", "1"))
	b := r.Counter("switchd.tuples_in", L("task", "1"))
	if a != b {
		t.Fatal("same name+labels returned different counters")
	}
	// Label order must not matter for instrument identity.
	c := r.Gauge("hostd.queue_depth", L("host", "0"), L("chan", "1"))
	d := r.Gauge("hostd.queue_depth", L("chan", "1"), L("host", "0"))
	if c != d {
		t.Fatal("label order changed gauge identity")
	}
	if got := fullName("hostd.queue_depth", []Label{L("host", "0"), L("chan", "1")}); got != `hostd.queue_depth{chan="1",host="0"}` {
		t.Fatalf("fullName = %q", got)
	}
}

// TestFullNameMatchesFmt holds fullName to the rendering it replaced —
// labels sorted by key, each value through fmt's %q — byte for byte, at one
// allocation per name.
func TestFullNameMatchesFmt(t *testing.T) {
	fmtName := func(name string, labels []Label) string {
		ls := append([]Label(nil), labels...)
		sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		parts := make([]string, len(ls))
		for i, l := range ls {
			parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
		}
		return name + "{" + strings.Join(parts, ",") + "}"
	}
	var many []Label // more labels than the index array on the stack holds
	for i := 11; i > 0; i-- {
		many = append(many, L(fmt.Sprintf("k%02d", i), fmt.Sprint(i*i)))
	}
	for _, c := range [][]Label{
		{L("task", `say "hi"`)},
		{L("path", `C:\dir\n`), L("nl", "a\nb\tc")},
		{L("name", "zürich ✓"), L("bad", "\xff\xfe"), L("ctl", "\x00\x7f")},
		{L("z", "1"), L("a", "2"), L("m", "3"), L("b", "4")},
		{L("tenant", strings.Repeat("long value ", 20))},
		many,
	} {
		if got, want := fullName("hostd.slot_fill", c), fmtName("hostd.slot_fill", c); got != want {
			t.Errorf("fullName = %q, want %q", got, want)
		}
	}
	labels, name := []Label{L("task", "7"), L("host", "2"), L("chan", "1")}, ""
	if a := testing.AllocsPerRun(100, func() { name = fullName("switchd.tuples_in", labels) }); a != 1 || name == "" {
		t.Errorf("fullName allocates %v objects per name, want 1", a)
	}
}

func TestRegistryNilNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Record(42)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

// TestZeroSinkCountsPrivately holds the one meaning of a zero Sink: each
// component that asks gets a registry of its own, and a cluster's sink hands
// out its shared one.
func TestZeroSinkCountsPrivately(t *testing.T) {
	a, b := Sink{}.Registry(), Sink{}.Registry()
	if a == nil || a == b {
		t.Fatal("a zero Sink must give each component its own registry")
	}
	a.Counter("x.y").Inc()
	if b.Total("x.y") != 0 {
		t.Fatal("private registries share a counter")
	}
	shared := NewRegistry()
	if (Sink{Reg: shared}).Registry() != shared {
		t.Fatal("a cluster sink must hand out its registry")
	}
}

func TestRegistryNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"nosegment", "Upper.case", "switchd.", "a.b-c", ".leading", "a..b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad label key: expected panic")
			}
		}()
		r.Counter("a.b", L("Bad-Key", "v"))
	}()
	if !nameRE.MatchString("switchd.tuples_in") || nameRE.MatchString("tuples") {
		t.Fatal("name convention check wrong")
	}
}

func TestRegistryKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter must panic")
		}
	}()
	r.Gauge("a.b")
}

func TestRegistryTotalAndMax(t *testing.T) {
	r := NewRegistry()
	r.Counter("hostd.replays_sent", L("host", "0")).Add(3)
	r.Counter("hostd.replays_sent", L("host", "1")).Add(7)
	r.Counter("hostd.replays_sent_total_other").Add(100) // different base name
	if got := r.Total("hostd.replays_sent"); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := r.Max("hostd.replays_sent"); got != 7 {
		t.Fatalf("Max = %d, want 7", got)
	}
	r.Gauge("hostd.degraded_ns", L("host", "2")).Set(50)
	if got := r.Max("hostd.degraded_ns"); got != 50 {
		t.Fatalf("gauge Max = %d, want 50", got)
	}
}

// TestRegistryConcurrent hammers instrument creation and updates from many
// goroutines; run under -race to verify the lock discipline.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("stress.hits").Inc()
				r.Gauge("stress.level").Set(int64(i))
				r.Histogram("stress.lat_ns").Record(int64(i))
				_ = r.Total("stress.hits")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("stress.hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("stress.lat_ns").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.hits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncDisabled measures a nil instrument's hot path.
func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.lat_ns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}
