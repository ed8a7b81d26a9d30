package keyspace

import (
	"fmt"

	"repro/internal/core"
)

// Partition restricts a tenant to a contiguous band of the switch's logical
// key space: a run of short packet slots and a run of medium coalesced
// groups. Partitions are the placement domain of multi-tenant deployments —
// two tenants with disjoint partitions never contend for the same AA column,
// so their in-switch aggregation state cannot interact.
//
// The zero Partition means "the whole key space" and selects code paths that
// are byte-identical to the single-tenant system; every consumer treats it
// as such via IsZero.
type Partition struct {
	// ShortLo is the first short packet slot of the band; ShortWidth is the
	// number of short slots. A zero ShortWidth (in a non-zero partition)
	// sends every short key down the long-key bypass.
	ShortLo, ShortWidth int
	// GroupLo / GroupWidth are the same for medium coalesced groups. A zero
	// GroupWidth sends every medium key down the long-key bypass.
	GroupLo, GroupWidth int
}

// IsZero reports whether p is the whole-keyspace partition.
func (p Partition) IsZero() bool {
	return p.ShortLo == 0 && p.ShortWidth == 0 && p.GroupLo == 0 && p.GroupWidth == 0
}

func (p Partition) String() string {
	if p.IsZero() {
		return "full"
	}
	if p.ShortWidth == 0 && p.GroupWidth == 0 {
		return "empty"
	}
	return fmt.Sprintf("short[%d:%d) groups[%d:%d)",
		p.ShortLo, p.ShortLo+p.ShortWidth, p.GroupLo, p.GroupLo+p.GroupWidth)
}

// LocateIn is Locate restricted to partition p: short keys hash onto the
// partition's slot band, medium keys onto its group band. The zero partition
// is exactly Locate. Like Locate it performs no heap allocation.
func (l *Layout) LocateIn(p Partition, key string) (class Class, firstSlot, segs int) {
	if p.IsZero() {
		return l.Locate(key)
	}
	switch c, h := l.classify(key); {
	case c == Short && p.ShortWidth > 0:
		return Short, p.ShortLo + int(h%uint64(p.ShortWidth)), 1
	case c == Medium && p.GroupWidth > 0:
		group := p.GroupLo + int(h%uint64(p.GroupWidth))
		return Medium, l.shortSlots + group*l.cfg.MediumSegs, l.cfg.MediumSegs
	default:
		return Long, 0, 0
	}
}

// PartitionsFor divides the key space of cfg into contiguous per-tenant
// bands proportional to weights, in tenant order. Both the short slots and
// the medium groups are split with the same cumulative rule
//
//	lo_i = floor(total · Σw_{<i} / Σw)
//
// so bands are disjoint, cover the space exactly, and a tenant's band
// depends only on the weights before it — deterministic regardless of map
// iteration anywhere upstream. Tenants with tiny weight shares can receive
// an empty band (their keys of that class then take the host bypass).
func PartitionsFor(weights []int, cfg core.Config) ([]Partition, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("keyspace: no tenants")
	}
	var sum int
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("keyspace: tenant %d has non-positive weight %d", i, w)
		}
		sum += w
	}
	shortSlots, groups := cfg.ShortSlots(), cfg.MediumGroups
	parts := make([]Partition, len(weights))
	cut := func(total, cum int) int { return total * cum / sum }
	cum := 0
	for i, w := range weights {
		sLo, gLo := cut(shortSlots, cum), cut(groups, cum)
		cum += w
		sHi, gHi := cut(shortSlots, cum), cut(groups, cum)
		parts[i] = Partition{
			ShortLo: sLo, ShortWidth: sHi - sLo,
			GroupLo: gLo, GroupWidth: gHi - gLo,
		}
		if parts[i].IsZero() {
			// An empty band at position 0 must not collide with the
			// whole-keyspace zero value. Lo fields are never read when the
			// width is zero, so any non-zero marker keeps it distinct.
			parts[i].ShortLo = -1
			parts[i].GroupLo = -1
		}
	}
	return parts, nil
}
