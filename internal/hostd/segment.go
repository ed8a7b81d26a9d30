package hostd

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/wire"
)

const (
	// segChunk is the size of one key arena chunk; a key longer than that
	// gets an allocation of its own.
	segChunk = 4 << 10
	// segBlock is the number of values in one value block.
	segBlock = 512
)

// segment is a receiving task's shared-memory segment (§3.1): the value of
// every key merged so far, from host residue and fetched switch aggregators
// alike. A key's bytes are copied once into an append-only arena of fixed
// chunks and indexed by a string that views them, so a distinct key costs
// bytes and only a new chunk allocates; a repeated key is one map lookup that
// converts its bytes without copying them. Values sit in fixed blocks, never
// moved once written. The core.Result the application reads is built from
// the segment once, at completion (result).
type segment struct {
	op    core.Op
	index map[string]int32 // key → value number
	chunk []byte           // the arena's current chunk: keys are appended up to its capacity
	vals  []*[segBlock]int64
}

// add folds v into key: a raw tuple's value under op.Apply, as
// core.Result.MergeKV does, or — when partial — a fetched aggregator's
// partial aggregate under op.Combine (Count adds).
func (s *segment) add(key []byte, v int64, partial bool) {
	i, ok := s.index[string(key)]
	if !ok {
		if s.index == nil {
			s.index = make(map[string]int32)
		}
		i = int32(len(s.index))
		if i%segBlock == 0 {
			s.vals = append(s.vals, new([segBlock]int64))
		}
		s.index[s.intern(key)] = i
	}
	cell := &s.vals[i/segBlock][i%segBlock]
	switch {
	case partial && ok:
		*cell = s.op.Combine(*cell, v)
	case partial:
		*cell = v
	case ok:
		*cell = s.op.Apply(*cell, v)
	default:
		*cell = s.op.Apply(s.op.Identity(), v)
	}
}

// addGroup folds one tuple whose key rides in the packed segments of group —
// the one slot of a short key, the coalesced group of a medium one (§3.2.3) —
// and whose value rides in its last slot. The key is rebuilt in a stack
// buffer.
func (s *segment) addGroup(l *keyspace.Layout, group []wire.Slot, partial bool) {
	var buf [64]byte
	s.add(l.AppendKey(buf[:0], group), group[len(group)-1].Val, partial)
}

// addLong folds one long-key tuple (the host bypass, §3.2.3).
func (s *segment) addLong(kv wire.LongKV) {
	s.add(unsafe.Slice(unsafe.StringData(kv.Key), len(kv.Key)), kv.Val, false)
}

// intern copies key into the arena and returns a string viewing the copy.
// The arena is append-only and a chunk is never reused, so the string stays
// valid for as long as anything holds it.
func (s *segment) intern(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	if len(key) > segChunk {
		return string(key)
	}
	if len(key) > cap(s.chunk)-len(s.chunk) {
		s.chunk = make([]byte, 0, segChunk)
	}
	n := len(s.chunk)
	s.chunk = append(s.chunk, key...)
	return unsafe.String(&s.chunk[n], len(key))
}

// result builds the core.Result of everything merged so far, sized once.
// Its keys are the arena's strings.
func (s *segment) result() core.Result {
	r := make(core.Result, len(s.index))
	for k, i := range s.index {
		r[k] = s.vals[i/segBlock][i%segBlock]
	}
	return r
}
