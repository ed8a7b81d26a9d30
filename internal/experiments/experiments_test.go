package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// The shape tests state what each reproduced figure must show — the paper's
// orderings, monotonicities and regimes — over the quick-preset tables
// committed in testdata/quick.json (see pinned).

// cell parses a numeric table cell.
func cell(t *testing.T, tb *stats.Table, r, c int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[r][c], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric:\n%s", r, c, tb.Rows[r][c], tb.String())
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	tb := pinned(t, "fig3", 0)
	// Columns: cores, Spark, Strawman, ASK, ASK/Spark.
	for r := range tb.Rows {
		spark := cell(t, tb, r, 1)
		straw := cell(t, tb, r, 2)
		full := cell(t, tb, r, 3)
		if !(spark < straw && straw < full) {
			t.Fatalf("row %d: want Spark < Strawman < ASK:\n%s", r, tb.String())
		}
	}
	// The multi-key gain at equal cores is dramatic (paper: up to 155×;
	// even at quick scale it must exceed 20×).
	last := len(tb.Rows) - 1
	if gain := cell(t, tb, last, 4); gain < 20 {
		t.Fatalf("ASK/Spark gain %.1f too small:\n%s", gain, tb.String())
	}
}

func TestFig7Shape(t *testing.T) {
	tb := pinned(t, "fig7", 0)
	// Rows: ASK 1dCh, ASK 4dCh, PreAggr 8thr, PreAggr 32thr.
	// ASK with 4 channels beats every PreAggr row while using less CPU.
	ask4 := tb.Rows[1]
	for r := 2; r < len(tb.Rows); r++ {
		if !durLess(t, ask4[1], tb.Rows[r][1]) {
			t.Fatalf("ASK 4dCh JCT %s not below %s (%s):\n%s", ask4[1], tb.Rows[r][1], tb.Rows[r][0], tb.String())
		}
	}
	if cpu := cell(t, tb, 1, 2); cpu > 10 {
		t.Fatalf("ASK 4dCh CPU%% = %.1f, want ~7.1:\n%s", cpu, tb.String())
	}
}

// durLess compares two duration cells as stats.Table renders them.
func durLess(t *testing.T, a, b string) bool {
	t.Helper()
	da, err1 := time.ParseDuration(a)
	db, err2 := time.ParseDuration(b)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad durations %q %q", a, b)
	}
	return da < db
}

func TestTable1Shape(t *testing.T) {
	tb := pinned(t, "table1", 0)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		aggr := cell(t, tb, r, 1)
		acked := cell(t, tb, r, 2)
		// Paper regime: the switch absorbs the vast majority of eligible
		// tuples, and most packets are fully absorbed.
		if aggr < 70 {
			t.Fatalf("%s aggregates only %.1f%%:\n%s", tb.Rows[r][0], aggr, tb.String())
		}
		if acked < 50 || acked > 100 {
			t.Fatalf("%s ACKed %.1f%%:\n%s", tb.Rows[r][0], acked, tb.String())
		}
	}
}

func TestFig8aShape(t *testing.T) {
	tb := pinned(t, "fig8a", 0)
	prev := 0.0
	for r := range tb.Rows {
		meas := cell(t, tb, r, 1)
		ideal := cell(t, tb, r, 2)
		if meas > ideal*1.02 {
			t.Fatalf("measured %.2f above ideal %.2f:\n%s", meas, ideal, tb.String())
		}
		if meas < prev {
			t.Fatalf("goodput not monotone in tuples/packet:\n%s", tb.String())
		}
		prev = meas
	}
	// At 32 tuples/packet the measured goodput approaches the ideal. At
	// quick scale, task setup/teardown overhead (~0.5 ms of control-plane
	// RPCs and fetches) still costs a few points; the Default preset gets
	// closer.
	last := len(tb.Rows) - 1
	if ratio := cell(t, tb, last, 3); ratio < 0.75 {
		t.Fatalf("32-tuple packets reach only %.2f of ideal:\n%s", ratio, tb.String())
	}
}

func TestFig8bShape(t *testing.T) {
	tb := pinned(t, "fig8b", 0)
	// Uniform (row 0) packs nearly full packets; skewed corpora pack fewer.
	uni := cell(t, tb, 0, 1)
	if uni < 24 {
		t.Fatalf("uniform mean fill %.1f of 32:\n%s", uni, tb.String())
	}
	worst := uni
	for r := 1; r < len(tb.Rows); r++ {
		if m := cell(t, tb, r, 1); m < worst {
			worst = m
		}
	}
	if worst >= uni {
		t.Fatalf("no corpus packs worse than uniform:\n%s", tb.String())
	}
}

func TestFig9Shape(t *testing.T) {
	tb := pinned(t, "fig9", 0)
	// Columns: ratio, Zipf, ZipfRev, Uniform, then +prio variants.
	// Row 0 is the smallest aggregator budget.
	zipf := cell(t, tb, 0, 1)
	zipfRev := cell(t, tb, 0, 2)
	zipfPrio := cell(t, tb, 0, 4)
	zipfRevPrio := cell(t, tb, 0, 5)
	// Hot-first beats cold-first without prioritization (Fig. 9(a)).
	if zipf <= zipfRev {
		t.Fatalf("Zipf %.1f%% not above Zipf(rev) %.1f%% without prio:\n%s", zipf, zipfRev, tb.String())
	}
	// Prioritization rescues the reverse ordering dramatically (Fig. 9(b)).
	if zipfRevPrio < zipfRev+15 {
		t.Fatalf("prio lifts Zipf(rev) only %.1f%%→%.1f%%:\n%s", zipfRev, zipfRevPrio, tb.String())
	}
	if zipfPrio < zipf {
		t.Fatalf("prio hurts hot-first ordering (%.1f%%→%.1f%%):\n%s", zipf, zipfPrio, tb.String())
	}
	// With aggregators == keys, prioritization absorbs nearly everything
	// (without it, hash collisions cap occupancy near 1-1/e ≈ 63%% of bins,
	// which is exactly what the Uniform column shows).
	lastRow := len(tb.Rows) - 1
	if full := cell(t, tb, lastRow, 4); full < 95 {
		t.Fatalf("ratio 1 with prioritization absorbs only %.1f%%:\n%s", full, tb.String())
	}
}

func TestFig10And11Shape(t *testing.T) {
	tb := pinned(t, "fig10", 0)
	// Columns: volume, Spark, SHM, RDMA, ASK, gain. ASK's JCT is smallest.
	for r := range tb.Rows {
		for c := 1; c <= 3; c++ {
			if !durLess(t, tb.Rows[r][4], tb.Rows[r][c]) {
				t.Fatalf("ASK JCT not lowest in row %d:\n%s", r, tb.String())
			}
		}
	}
	tb11 := pinned(t, "fig11", 0)
	// ASK (row 3) mappers finish far earlier than Spark's (row 0).
	if !durLess(t, tb11.Rows[3][1], tb11.Rows[0][1]) {
		t.Fatalf("ASK mapper TCT not below Spark:\n%s", tb11.String())
	}
}

func TestFig12Shape(t *testing.T) {
	tb := pinned(t, "fig12", 0)
	if len(tb.Rows) != 6 {
		t.Fatalf("models = %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		askT := cell(t, tb, r, 1)
		atp := cell(t, tb, r, 2)
		swm := cell(t, tb, r, 3)
		host := cell(t, tb, r, 4)
		if host >= swm || host >= askT {
			t.Fatalf("%s: HostPS not the slowest:\n%s", tb.Rows[r][0], tb.String())
		}
		if r := askT / atp; r < 0.7 || r > 1.4 {
			t.Fatalf("ASK/ATP ratio %.2f not similar:\n%s", r, tb.String())
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tba := pinned(t, "fig13a", 0)
	// NoAggr goodput ceiling (94.9%) exceeds ASK's (76.6%) once saturated.
	last := len(tba.Rows) - 1
	askGood := cell(t, tba, last, 1)
	naGood := cell(t, tba, last, 3)
	if askGood >= naGood {
		t.Fatalf("ASK goodput %.1f not below NoAggr %.1f at saturation:\n%s", askGood, naGood, tba.String())
	}
	if askGood < 50 {
		t.Fatalf("ASK goodput %.1f too low at 4 channels:\n%s", askGood, tba.String())
	}

	tbb := pinned(t, "fig13b", 0)
	// ASK per-sender throughput stays ~flat; NoAggr decays ~1/N.
	ask1 := cell(t, tbb, 0, 1)
	askN := cell(t, tbb, len(tbb.Rows)-1, 1)
	na1 := cell(t, tbb, 0, 2)
	naN := cell(t, tbb, len(tbb.Rows)-1, 2)
	if askN < ask1*0.7 {
		t.Fatalf("ASK per-sender rate fell %.1f→%.1f:\n%s", ask1, askN, tbb.String())
	}
	if naN > na1*0.5 {
		t.Fatalf("NoAggr per-sender rate did not decay (%.1f→%.1f):\n%s", na1, naN, tbb.String())
	}
}

func TestAblations(t *testing.T) {
	swp := pinned(t, "ablation-swap", 0)
	// The ablation's story: some threshold beats no prioritization (too
	// aggressive thrashes, too lazy converges to off — a sweet spot exists).
	off := cell(t, swp, 0, 1)
	best := off
	for r := 1; r < len(swp.Rows); r++ {
		if v := cell(t, swp, r, 1); v > best {
			best = v
		}
	}
	if best <= off {
		t.Fatalf("no swap threshold beats prioritization-off (%.1f vs %.1f):\n%s", best, off, swp.String())
	}

	win := pinned(t, "ablation-window", 0)
	// Larger windows sustain higher throughput under loss.
	small := cell(t, win, 0, 3)
	large := cell(t, win, len(win.Rows)-1, 3)
	if large < small {
		t.Fatalf("throughput fell with larger window:\n%s", win.String())
	}

	med := pinned(t, "ablation-medium", 0)
	// m=0 (no medium groups) bypasses far more than m=2.
	none := cell(t, med, 0, 3)
	m2 := cell(t, med, 1, 3)
	if m2 >= none {
		t.Fatalf("medium groups do not reduce bypass (%.1f vs %.1f):\n%s", m2, none, med.String())
	}

	ccTab := pinned(t, "ablation-congestion", 0)
	offRatio := cell(t, ccTab, 0, 1)
	onRatio := cell(t, ccTab, 1, 1)
	if onRatio > offRatio/2 {
		t.Fatalf("congestion control did not tame incast (%.2f vs %.2f):\n%s", onRatio, offRatio, ccTab.String())
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 21 {
		t.Fatalf("registry has %d experiments", len(All()))
	}
	if _, err := ByName("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("tenancy"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("scenarios"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("chaos"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("fabric-chaos"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("corruption"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, r := range All() {
		if r.Name == "" || r.Desc == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
	}
}

func TestMultiRackShape(t *testing.T) {
	tb := pinned(t, "multirack", 0)
	// Absorption falls monotonically as senders move off-rack; residue
	// rises to take up the slack.
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if first < 90 {
		t.Fatalf("all-local absorption %.1f%% too low:\n%s", first, tb.String())
	}
	if last > 5 {
		t.Fatalf("all-remote absorption %.1f%% should be ~0:\n%s", last, tb.String())
	}
	for r := 0; r < len(tb.Rows); r++ {
		agg := cell(t, tb, r, 1)
		res := cell(t, tb, r, 2)
		if agg+res < 95 || agg+res > 105 {
			t.Fatalf("row %d: absorption %.1f + residue %.1f ≉ 100:\n%s", r, agg, res, tb.String())
		}
	}
}

func TestCorruptionShape(t *testing.T) {
	tb := pinned(t, "corruption", 0)
	// Columns: corrupt-prob, elapsed, x clean, Mtuple/s, goodput-Gbps,
	// corrupted, sw-drop, host-drop, retransmits, exact.
	if len(tb.Rows) != 3 {
		t.Fatalf("expected 3 sweep rows:\n%s", tb.String())
	}
	if c := cell(t, tb, 0, 5); c != 0 {
		t.Fatalf("clean run corrupted %v frames:\n%s", c, tb.String())
	}
	// Damage must grow with the probability, and the heaviest row must show
	// the whole pipeline: corrupted frames, quarantine drops at switch or
	// host, and the retransmissions that repaired them.
	prev := -1.0
	for r := range tb.Rows {
		c := cell(t, tb, r, 5)
		if c < prev {
			t.Fatalf("corrupted frames not monotone in probability:\n%s", tb.String())
		}
		prev = c
	}
	last := len(tb.Rows) - 1
	if cell(t, tb, last, 5) == 0 {
		t.Fatalf("1e-3 sweep corrupted nothing:\n%s", tb.String())
	}
	if cell(t, tb, last, 6)+cell(t, tb, last, 7) == 0 {
		t.Fatalf("1e-3 sweep quarantined nothing:\n%s", tb.String())
	}
	if cell(t, tb, last, 8) == 0 {
		t.Fatalf("1e-3 sweep retransmitted nothing:\n%s", tb.String())
	}
	if slow := cell(t, tb, last, 2); slow < 1.0 {
		t.Fatalf("heavy corruption ran faster than clean (%v):\n%s", slow, tb.String())
	}
}
