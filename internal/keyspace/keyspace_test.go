package keyspace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/wire"
)

func defaultLayout(t *testing.T) *Layout {
	t.Helper()
	l, err := NewLayout(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestClassify(t *testing.T) {
	l := defaultLayout(t) // KPartBytes=4, m=2 → medium is 5..8 bytes
	cases := []struct {
		key  string
		want Class
	}{
		{"a", Short},
		{"abcd", Short},
		{"abcde", Medium},
		{"yourself", Medium}, // 8 bytes
		{"yourselfs", Long},  // 9 bytes
		{"internationalization", Long},
		{"ab\x00d", Long}, // NUL byte forces bypass
		{"", Long},
	}
	for _, c := range cases {
		if got := l.Classify(c.key); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestPlaceShortStability(t *testing.T) {
	l := defaultLayout(t)
	// The same key must always land on the same slot (single-key-single-spot).
	for _, key := range []string{"a", "the", "word", "xy"} {
		p1, p2 := l.Place(key), l.Place(key)
		if p1.FirstSlot != p2.FirstSlot {
			t.Errorf("Place(%q) unstable: %d vs %d", key, p1.FirstSlot, p2.FirstSlot)
		}
		if p1.Segs != 1 {
			t.Errorf("short key %q uses %d segs", key, p1.Segs)
		}
		if p1.FirstSlot < 0 || p1.FirstSlot >= l.ShortSlots() {
			t.Errorf("short key %q slot %d out of short range [0,%d)", key, p1.FirstSlot, l.ShortSlots())
		}
	}
}

func TestPlaceMediumGroup(t *testing.T) {
	l := defaultLayout(t)
	cfg := l.Config()
	p := l.Place("yours") // 5 bytes → medium
	if p.Class != Medium {
		t.Fatalf("class = %v", p.Class)
	}
	if p.Segs != cfg.MediumSegs {
		t.Fatalf("segs = %d, want %d", p.Segs, cfg.MediumSegs)
	}
	if p.FirstSlot < l.ShortSlots() || p.FirstSlot+p.Segs > cfg.NumAAs {
		t.Fatalf("medium slots [%d,%d) outside medium range [%d,%d)",
			p.FirstSlot, p.FirstSlot+p.Segs, l.ShortSlots(), cfg.NumAAs)
	}
	if (p.FirstSlot-l.ShortSlots())%cfg.MediumSegs != 0 {
		t.Fatalf("medium first slot %d not group-aligned", p.FirstSlot)
	}
	if len(p.KParts) != cfg.MediumSegs {
		t.Fatalf("kparts = %d, want %d", len(p.KParts), cfg.MediumSegs)
	}
	// "yours" splits into "your" + "s" (padded).
	if got := rebuild(l, p.KParts); got != "yours" {
		t.Fatalf("reconstruct = %q, want %q", got, "yours")
	}
}

func TestReconstructShortRoundtrip(t *testing.T) {
	l := defaultLayout(t)
	for _, key := range []string{"a", "ab", "abc", "abcd"} {
		p := l.Place(key)
		if got := rebuild(l, p.KParts[:1]); got != key {
			t.Errorf("reconstruct(%q) = %q", key, got)
		}
	}
}

func TestSlotDistributionUniform(t *testing.T) {
	l := defaultLayout(t)
	counts := make([]int, l.ShortSlots())
	n := 100000
	for i := 0; i < n; i++ {
		p := l.Place(fmt.Sprintf("k%d", i))
		if p.Class != Short {
			continue
		}
		counts[p.FirstSlot]++
	}
	mean := 0
	for _, c := range counts {
		mean += c
	}
	mean /= len(counts)
	for slot, c := range counts {
		if c < mean*8/10 || c > mean*12/10 {
			t.Errorf("slot %d count %d deviates >20%% from mean %d", slot, c, mean)
		}
	}
}

func TestPlaceQuickProperties(t *testing.T) {
	l := defaultLayout(t)
	cfg := l.Config()
	f := func(raw []byte) bool {
		key := strings.ReplaceAll(string(raw), "\x00", "x")
		if key == "" {
			return true
		}
		p := l.Place(key)
		switch p.Class {
		case Short:
			return len(key) <= cfg.KPartBytes &&
				p.FirstSlot < l.ShortSlots() &&
				rebuild(l, p.KParts[:1]) == key
		case Medium:
			return len(key) > cfg.KPartBytes && len(key) <= cfg.MaxMediumKeyBytes() &&
				rebuild(l, p.KParts) == key
		case Long:
			return len(key) > cfg.MaxMediumKeyBytes()
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestNoMediumGroupsConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MediumGroups = 0
	cfg.MediumSegs = 0
	l, err := NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Classify("abcde"); got != Long {
		t.Fatalf("with no medium groups, 5-byte key class = %v, want Long", got)
	}
	if l.LogicalUnits() != cfg.NumAAs {
		t.Fatalf("LogicalUnits = %d, want %d", l.LogicalUnits(), cfg.NumAAs)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MediumGroups = 20 // 20×2 = 40 > 32 AAs
	if _, err := NewLayout(cfg); err == nil {
		t.Fatal("oversubscribed medium groups accepted")
	}
}

// rebuild recovers a key from its packed kParts, in slot order, through
// AppendKey — what a receiver does with the slots of a packet.
func rebuild(l *Layout, kparts []uint64) string {
	group := make([]wire.Slot, len(kparts))
	for i, kp := range kparts {
		group[i].KPart = kp
	}
	return string(l.AppendKey(nil, group))
}
