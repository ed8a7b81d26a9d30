// Package keyspace implements ASK's sender-assisted addressing (§3.2.2) and
// coalesced placement for variable-length keys (§3.2.3).
//
// The whole key space is first divided by length into short, medium, and
// long keys:
//
//   - short keys fit in one aggregator's kPart (≤ KPartBytes);
//   - medium keys fit in one coalesced group of MediumSegs adjacent AAs
//     (≤ KPartBytes·MediumSegs), padded to the group width;
//   - long keys bypass the switch and are aggregated at the receiver host.
//
// The short subspace is then partitioned into ShortSlots ordered subspaces
// with a uniform hash: a key always falls in the same subspace, is always
// encoded at the same packet slot, and is therefore always processed by the
// same AA — avoiding the single-key-multiple-spot problem. Medium keys are
// likewise partitioned across the MediumGroups coalesced groups, and all
// AAs of a group address the key with a unified row index (a hash of the
// entire key), which avoids the partial-matching aggregation errors of the
// naïve segment-independent design.
//
// Keys containing a NUL byte take the long-key bypass regardless of length:
// kParts are zero-padded on the right, the all-zero kPart is the "blank
// aggregator" sentinel, and NUL-free keys make the padding unambiguous.
package keyspace

import (
	"repro/internal/core"
	"repro/internal/wire"
)

// Class is the length class of a key.
type Class uint8

const (
	// Short keys fit in a single aggregator kPart.
	Short Class = iota
	// Medium keys occupy one coalesced group of adjacent AAs.
	Medium
	// Long keys bypass the switch.
	Long
)

func (c Class) String() string {
	switch c {
	case Short:
		return "short"
	case Medium:
		return "medium"
	case Long:
		return "long"
	default:
		return "invalid"
	}
}

// FNV-1a 64-bit, with distinct offset bases so slot addressing and key
// ordering are independent hash functions. Row addressing is the switch's
// own hash over the packed kParts (switchd.RowIndex).
const (
	fnvPrime       = 1099511628211
	fnvOffsetSlot  = 14695981039346656037
	fnvOffsetOrder = 0xc2b2ae3d27d4eb4f
)

func fnv64(offset uint64, s string) uint64 {
	h := offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// HashSlot is the subspace-partition hash 𝔽 of §3.2.2.
func HashSlot(key string) uint64 { return fnv64(fnvOffsetSlot, key) }

// HashOrder is a second independent hash used by workload generators.
func HashOrder(key string) uint64 { return fnv64(fnvOffsetOrder, key) }

// Layout precomputes the slot map for a configuration.
type Layout struct {
	cfg        core.Config
	shortSlots int
}

// NewLayout builds the layout for cfg, validating it first.
func NewLayout(cfg core.Config) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Layout{cfg: cfg, shortSlots: cfg.ShortSlots()}, nil
}

// Config returns the configuration the layout was built from.
func (l *Layout) Config() core.Config { return l.cfg }

// ShortSlots returns the number of packet slots serving short keys.
func (l *Layout) ShortSlots() int { return l.shortSlots }

// classify returns the class of key and, unless it is Long, HashSlot(key),
// reading the key once: the NUL test that sends a key to the bypass (a NUL
// byte would read as padding in a packed kPart) rides in the hash loop, and a
// key whose length alone makes it Long is not read at all.
func (l *Layout) classify(key string) (Class, uint64) {
	c := l.classByLen(len(key))
	if c == Long {
		return Long, 0
	}
	h := uint64(fnvOffsetSlot)
	for i := 0; i < len(key); i++ {
		b := key[i]
		if b == 0 {
			return Long, 0
		}
		h ^= uint64(b)
		h *= fnvPrime
	}
	return c, h
}

// classByLen is the class of a NUL-free key of n bytes.
func (l *Layout) classByLen(n int) Class {
	if n == 0 {
		return Long
	}
	if n <= l.cfg.KPartBytes {
		if l.shortSlots == 0 {
			return Long
		}
		return Short
	}
	// A medium key must fill every segment of its group with at least one
	// byte: an all-zero segment is indistinguishable from a blank
	// aggregator, which would break the group matching invariant. With the
	// paper's m = 2 this is just (KPartBytes, 2·KPartBytes]; larger m
	// sacrifices the middle lengths to the bypass (see the medium-key
	// ablation).
	if l.cfg.MediumGroups > 0 &&
		n > l.cfg.KPartBytes*(l.cfg.MediumSegs-1) &&
		n <= l.cfg.MaxMediumKeyBytes() {
		return Medium
	}
	return Long
}

// Placement describes where a key's tuple goes in a packet / on the switch.
type Placement struct {
	Class Class
	// FirstSlot is the first packet slot (== first AA index) the key uses;
	// a Short key uses exactly one slot, a Medium key uses Segs consecutive
	// slots. Undefined for Long.
	FirstSlot int
	// Segs is the number of slots/AAs used (1 for short).
	Segs int
	// KParts are the packed key segments, one per used slot; the switch
	// hashes all of them into one row index (§3.2.3's unified index).
	KParts []uint64
}

// Locate computes where key goes without packing its kParts: the class,
// first packet slot, and slot count. It performs no heap allocation, so hot
// paths that only need routing (which bucket / unit a key belongs to) can
// skip the kPart packing entirely. firstSlot and segs are 0 for Long.
func (l *Layout) Locate(key string) (class Class, firstSlot, segs int) {
	c, h := l.classify(key)
	switch c {
	case Short:
		return Short, int(h % uint64(l.shortSlots)), 1
	case Medium:
		group := int(h % uint64(l.cfg.MediumGroups))
		return Medium, l.shortSlots + group*l.cfg.MediumSegs, l.cfg.MediumSegs
	default:
		return Long, 0, 0
	}
}

// Place computes the placement for key. Long keys get Placement{Class: Long}
// with no slots. Segments are packed straight from the key string — no
// intermediate []byte conversions.
func (l *Layout) Place(key string) Placement {
	class, first, segs := l.Locate(key)
	switch class {
	case Short:
		return Placement{
			Class:     Short,
			FirstSlot: first,
			Segs:      1,
			KParts:    []uint64{wire.PackKPart(key, l.cfg.KPartBytes)},
		}
	case Medium:
		kparts := make([]uint64, 0, segs)
		for i := 0; i < segs; i++ {
			lo := i * l.cfg.KPartBytes
			hi := lo + l.cfg.KPartBytes
			var seg string
			if lo < len(key) {
				if hi > len(key) {
					hi = len(key)
				}
				seg = key[lo:hi]
			}
			kparts = append(kparts, wire.PackKPart(seg, l.cfg.KPartBytes))
		}
		return Placement{
			Class:     Medium,
			FirstSlot: first,
			Segs:      segs,
			KParts:    kparts,
		}
	default:
		return Placement{Class: Long}
	}
}

// AppendKey appends to dst the key whose packed segments the slots of group
// carry, in slot order — the one slot of a short key, or the members of a
// medium key's coalesced group — and returns the extended buffer. A receiver
// that merges tuple by tuple rebuilds each key in one stack buffer, looks it
// up without copying it, and copies only the bytes of a key it has not met
// into its result segment's arena — no string is allocated per key.
func (l *Layout) AppendKey(dst []byte, group []wire.Slot) []byte {
	for _, s := range group {
		dst = wire.AppendKPart(dst, s.KPart, l.cfg.KPartBytes)
	}
	return dst
}

// LogicalUnits returns the number of logical tuple units a packet can carry:
// ShortSlots short tuples plus MediumGroups medium tuples.
func (l *Layout) LogicalUnits() int { return l.shortSlots + l.cfg.MediumGroups }
