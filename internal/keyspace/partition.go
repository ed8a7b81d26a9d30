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

// Cut splits total into contiguous bands proportional to the positive
// weights, in order, and returns the n+1 band boundaries: band i is
// [b[i], b[i+1]), with
//
//	b[i] = floor(total · Σw_{<i} / Σw)
//
// so bands are disjoint, cover [0, total) exactly, and a band depends only
// on the weights up to it — deterministic regardless of map iteration
// anywhere upstream. A small weight share can receive an empty band. Tenancy
// cuts the key space, the AA rows and the data channels with it.
func Cut(total int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	b := make([]int, len(weights)+1)
	cum := 0
	for i, w := range weights {
		cum += w
		b[i+1] = total * cum / sum
	}
	return b
}

// PartitionsFor divides the key space of cfg into contiguous per-tenant
// bands proportional to weights, in tenant order: the short slots and the
// medium groups are each split by Cut. Tenants with tiny weight shares can
// receive an empty band (their keys of that class then take the host
// bypass).
func PartitionsFor(weights []int, cfg core.Config) ([]Partition, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("keyspace: no tenants")
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("keyspace: tenant %d has non-positive weight %d", i, w)
		}
	}
	short, groups := Cut(cfg.ShortSlots(), weights), Cut(cfg.MediumGroups, weights)
	parts := make([]Partition, len(weights))
	for i := range parts {
		parts[i] = Partition{
			ShortLo: short[i], ShortWidth: short[i+1] - short[i],
			GroupLo: groups[i], GroupWidth: groups[i+1] - groups[i],
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
