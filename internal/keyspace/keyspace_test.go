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
		if got, _ := l.classify(c.key); got != c.want {
			t.Errorf("classify(%q) = %v, want %v", c.key, got, c.want)
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
	if got, _ := l.classify("abcde"); got != Long {
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

// refClassify is Classify as two passes over the key: a NUL scan, then the
// length rules.
func refClassify(l *Layout, key string) Class {
	cfg := l.Config()
	switch n := len(key); {
	case n == 0 || strings.IndexByte(key, 0) >= 0:
		return Long
	case n <= cfg.KPartBytes:
		if l.ShortSlots() == 0 {
			return Long
		}
		return Short
	case cfg.MediumGroups > 0 && n > cfg.KPartBytes*(cfg.MediumSegs-1) && n <= cfg.MaxMediumKeyBytes():
		return Medium
	}
	return Long
}

// refLocateIn is LocateIn from the reference class and a second read of the
// key by HashSlot.
func refLocateIn(l *Layout, p Partition, key string) (Class, int, int) {
	cfg := l.Config()
	shortLo, shortW, groupLo, groupW := 0, l.ShortSlots(), 0, cfg.MediumGroups
	if !p.IsZero() {
		shortLo, shortW, groupLo, groupW = p.ShortLo, p.ShortWidth, p.GroupLo, p.GroupWidth
	}
	switch c := refClassify(l, key); {
	case c == Short && shortW > 0:
		return Short, shortLo + int(HashSlot(key)%uint64(shortW)), 1
	case c == Medium && groupW > 0:
		group := groupLo + int(HashSlot(key)%uint64(groupW))
		return Medium, l.ShortSlots() + group*cfg.MediumSegs, cfg.MediumSegs
	}
	return Long, 0, 0
}

// TestLocateReadsKeyOnce: the one-pass classification (the NUL test inside
// the slot hash loop, Long on length alone) places every key exactly where a
// NUL scan followed by HashSlot does — the empty key, every length from 1 to
// 2·KPartBytes+1 (short, medium and the first long length), and each of those
// with a NUL at every position — on the paper's layout, one with m = 3 (whose
// middle lengths are long), one without short slots, and on every band of a
// partitioned layout.
func TestLocateReadsKeyOnce(t *testing.T) {
	def := core.DefaultConfig()
	m3 := def
	m3.MediumSegs, m3.MediumGroups = 3, 5
	noShort := def
	noShort.MediumGroups = def.NumAAs / def.MediumSegs
	var keys []string
	for n := 0; n <= 2*def.KPartBytes+1; n++ {
		key := []byte(strings.Repeat("k", n))
		for i := range key {
			key[i] = byte('a' + (n*7+i*3)%26)
		}
		keys = append(keys, string(key))
		for i := range key {
			withNUL := append([]byte(nil), key...)
			withNUL[i] = 0
			keys = append(keys, string(withNUL))
		}
	}
	keys = append(keys, strings.Repeat("long/", 3*def.KPartBytes))
	for _, cfg := range []core.Config{def, m3, noShort} {
		l, err := NewLayout(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts := []Partition{{}}
		if ps, err := PartitionsFor([]int{3, 1, 1}, cfg); err != nil {
			t.Fatal(err)
		} else {
			parts = append(parts, ps...)
		}
		for _, key := range keys {
			if got, _ := l.classify(key); got != refClassify(l, key) {
				t.Errorf("m=%d: classify(%q) = %v, want %v", cfg.MediumSegs, key, got, refClassify(l, key))
			}
			for _, p := range parts {
				c, first, segs := l.LocateIn(p, key)
				wc, wfirst, wsegs := refLocateIn(l, p, key)
				if c != wc || first != wfirst || segs != wsegs {
					t.Errorf("m=%d, %v: LocateIn(%q) = (%v, %d, %d), want (%v, %d, %d)",
						cfg.MediumSegs, p, key, c, first, segs, wc, wfirst, wsegs)
				}
				if p.IsZero() {
					if c, first, segs := l.Locate(key); c != wc || first != wfirst || segs != wsegs {
						t.Errorf("m=%d: Locate(%q) = (%v, %d, %d), want (%v, %d, %d)",
							cfg.MediumSegs, key, c, first, segs, wc, wfirst, wsegs)
					}
				}
			}
		}
	}
}
