// Package core defines the shared vocabulary of the ASK reproduction: keys
// and values, aggregation results, task descriptors, identifiers, and the
// service configuration shared by the host daemon (internal/hostd) and the
// switch program (internal/switchd).
//
// ASK aggregates key-value streams: each of M senders emits a sequence of
// (key, value) tuples, and the receiver obtains, for every distinct key, the
// aggregate of all values carried by that key across all streams (§2.1.1 of
// the paper). Aggregation is asynchronous — keys are unordered,
// unforeseeable, and senders are not synchronized.
package core

import (
	"fmt"
	"sort"
	"time"
)

// KV is a single key-value tuple of a stream. Keys are arbitrary byte
// strings; values are 64-bit integers on the host side (the switch stores
// only the low AggregatorBits/2 bits of intermediate sums; see Config).
type KV struct {
	Key string
	Val int64
}

// HostID identifies a server attached to the switch.
type HostID uint16

// TaskID identifies an aggregation task. Multi-tenant deployments encode the
// tenant in the high bits (§7, Multi-Tenancy).
type TaskID uint32

// TenantID identifies one tenant of a shared fabric. Tenant 0 is the
// "untenanted" legacy namespace: single-job deployments never set it, and
// every zero-tenant code path is byte-identical to the pre-tenancy system.
type TenantID uint8

// MakeTaskID packs a tenant and a per-tenant task sequence number into one
// TaskID (tenant in the high byte, per the §7 convention already used by the
// flow tables).
func MakeTaskID(tenant TenantID, seq uint32) TaskID {
	return TaskID(uint32(tenant)<<24 | seq&0x00ffffff)
}

// Tenant extracts the owning tenant from a task ID.
func (t TaskID) Tenant() TenantID { return TenantID(t >> 24) }

// ChannelID identifies a data channel of a host daemon. The pair
// (HostID, ChannelID) names a persistent flow whose reliability state
// (seen/PktState) lives on the switch for the lifetime of the service.
type ChannelID uint8

// FlowKey names one persistent data-channel flow from a sender host.
type FlowKey struct {
	Host    HostID
	Channel ChannelID
}

func (f FlowKey) String() string { return fmt.Sprintf("h%d/ch%d", f.Host, f.Channel) }

// Op is the aggregation operator. The paper's workloads use Sum
// (reduce/allreduce); the switch model also supports the other commutative,
// idempotent-free operators expressible in one register action.
type Op uint8

const (
	OpSum Op = iota
	OpMax
	OpMin
	OpCount
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpCount:
		return "count"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Apply combines an existing aggregate with a new value.
func (o Op) Apply(agg, v int64) int64 {
	switch o {
	case OpSum:
		return agg + v
	case OpMax:
		if v > agg {
			return v
		}
		return agg
	case OpMin:
		if v < agg {
			return v
		}
		return agg
	case OpCount:
		return agg + 1
	default:
		panic(fmt.Sprintf("core: unknown op %d", o))
	}
}

// Identity returns the operator's identity element (the value an aggregator
// holds when first reserved, before applying the reserving tuple).
func (o Op) Identity() int64 {
	switch o {
	case OpSum, OpCount:
		return 0
	case OpMax:
		return -1 << 62
	case OpMin:
		return 1 << 62
	default:
		panic(fmt.Sprintf("core: unknown op %d", o))
	}
}

// Result is a completed aggregation: final value per distinct key.
type Result map[string]int64

// MergeKV folds a single tuple into the result under op.
func (r Result) MergeKV(kv KV, op Op) {
	if cur, ok := r[kv.Key]; ok {
		r[kv.Key] = op.Apply(cur, kv.Val)
	} else {
		r[kv.Key] = op.Apply(op.Identity(), kv.Val)
	}
}

// Merge folds another result into r under op.
func (r Result) Merge(other Result, op Op) {
	for k, v := range other {
		if cur, ok := r[k]; ok {
			r[k] = op.Combine(cur, v)
		} else {
			r[k] = v
		}
	}
}

// WireBytes estimates the wire size of shipping the result as (key, value)
// records: per entry 2 bytes of length, the key, and an 8-byte value.
func (r Result) WireBytes() int {
	n := 0
	for k := range r {
		n += 2 + len(k) + 8
	}
	return n
}

// Combine merges two partial aggregates of the same key (as opposed to
// Apply, which folds in a raw value). For Count the partials are themselves
// counts, so they add.
func (o Op) Combine(a, b int64) int64 {
	if o == OpCount {
		return a + b
	}
	return o.Apply(a, b)
}

// Equal reports whether two results are identical.
func (r Result) Equal(other Result) bool {
	if len(r) != len(other) {
		return false
	}
	for k, v := range r {
		if ov, ok := other[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Diff returns a short human-readable description of up to max differences
// between r and other, for test failure messages.
func (r Result) Diff(other Result, max int) string {
	var diffs []string
	for k, v := range r {
		ov, ok := other[k]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%q: %d vs <missing>", k, v))
		} else if ov != v {
			diffs = append(diffs, fmt.Sprintf("%q: %d vs %d", k, v, ov))
		}
	}
	for k, v := range other {
		if _, ok := r[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q: <missing> vs %d", k, v))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > max {
		diffs = append(diffs[:max], fmt.Sprintf("... and %d more", len(diffs)-max))
	}
	if len(diffs) == 0 {
		return "<equal>"
	}
	return fmt.Sprintf("%d diffs: %v", len(diffs), diffs)
}

// MismatchError reports an aggregation result that differs from its
// reference; match with errors.As. Diff lists the first differences, result
// against reference, as Result.Diff words them.
type MismatchError struct{ Diff string }

func (e *MismatchError) Error() string { return "wrong aggregation result: " + e.Diff }

// Verify is the verify step next to Reference: nil when r equals want, a
// *MismatchError carrying their Diff otherwise.
func (r Result) Verify(want Result) error {
	if r.Equal(want) {
		return nil
	}
	return &MismatchError{Diff: r.Diff(want, 8)}
}

// Reference computes the ground-truth aggregation of the given streams with
// a plain hash map. Tests use it as the correctness oracle (Eq. 2).
func Reference(op Op, streams ...[]KV) Result {
	r := make(Result)
	for _, s := range streams {
		for _, kv := range s {
			r.MergeKV(kv, op)
		}
	}
	return r
}

// Stream lazily yields the key-value tuples of one sender's stream; it
// returns ok == false when exhausted. Streams are single-use; workload
// generators hand out fresh ones so large streams never materialize.
type Stream func() (kv KV, ok bool)

// SliceStream returns a Stream over kvs.
func SliceStream(kvs []KV) Stream {
	i := 0
	return func() (KV, bool) {
		if i >= len(kvs) {
			return KV{}, false
		}
		kv := kvs[i]
		i++
		return kv, true
	}
}

// Collect drains a stream into a slice (streams that fit in memory only).
func Collect(s Stream) []KV { return collect(s) }

// collectChunk is the number of elements collect gathers before it starts a
// new chunk.
const collectChunk = 4096

// collect drains next into a slice of exactly the stream's length, nil for
// an empty stream. Growing one slice of string-carrying elements by append's
// 1.25× steps zeroes, copies and GC-scans about five times the final bytes;
// here a stream longer than one chunk is gathered into fixed-size chunks,
// each written once, and copied once into the result.
func collect[T any](next func() (T, bool)) []T {
	var full [][]T
	var cur []T
	for {
		v, ok := next()
		if !ok {
			break
		}
		if len(cur) == collectChunk {
			full = append(full, cur)
			cur = make([]T, 0, collectChunk)
		}
		cur = append(cur, v)
	}
	if len(full) == 0 {
		return cur
	}
	out := make([]T, 0, len(full)*collectChunk+len(cur))
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, cur...)
}

// ReferenceStreams aggregates streams with a plain map: the ground truth for
// arbitrary-size streams.
func ReferenceStreams(op Op, streams ...Stream) Result {
	r := make(Result)
	for _, s := range streams {
		for {
			kv, ok := s()
			if !ok {
				break
			}
			r.MergeKV(kv, op)
		}
	}
	return r
}

// TimedKV is one tuple of a timed stream: the tuple plus its arrival offset
// from the start of the stream. Timed streams model temporal workloads —
// bursts, diurnal cycles, trace replays — where tuples become available to
// the sending daemon at their arrival times rather than back-to-back.
type TimedKV struct {
	KV
	// At is the arrival offset from stream start; offsets within one stream
	// are non-decreasing.
	At time.Duration
}

// TimedStream lazily yields timestamped tuples in non-decreasing At order;
// it returns ok == false when exhausted. Like Stream, timed streams are
// single-use.
type TimedStream func() (tkv TimedKV, ok bool)

// SliceTimedStream returns a TimedStream over tkvs.
func SliceTimedStream(tkvs []TimedKV) TimedStream {
	i := 0
	return func() (TimedKV, bool) {
		if i >= len(tkvs) {
			return TimedKV{}, false
		}
		tkv := tkvs[i]
		i++
		return tkv, true
	}
}

// CollectTimed drains a timed stream into a slice (streams that fit in memory
// only).
func CollectTimed(ts TimedStream) []TimedKV { return collect(ts) }

// Untimed projects a timed stream onto its tuples, discarding arrival times.
func (ts TimedStream) Untimed() Stream {
	return func() (KV, bool) {
		tkv, ok := ts()
		return tkv.KV, ok
	}
}

// Timed lifts a plain stream into a timed one with every arrival at offset
// zero (immediately available — the back-to-back regime).
func (s Stream) Timed() TimedStream {
	return func() (TimedKV, bool) {
		kv, ok := s()
		return TimedKV{KV: kv}, ok
	}
}

// TaskSpec describes one aggregation task submitted to the service: a set of
// sender hosts streaming tuples toward a single receiver host (§3.1).
type TaskSpec struct {
	ID       TaskID
	Receiver HostID
	Senders  []HostID
	Op       Op
	// Rows is the total number of aggregator rows (per AA, both shadow
	// copies together) requested from the switch controller. Zero requests
	// the largest free block; a negative value runs the task transport-only
	// (no switch region, all aggregation at the receiver host — the
	// SparkSHM baseline of §5.1).
	Rows int
}

// Config collects the tunables of an ASK deployment. The defaults mirror the
// paper's prototype (§4): 32 AAs per pipeline, 32768 aggregators per AA,
// 64-bit aggregators (n = 32-bit kPart + 32-bit vPart), medium-key groups
// with m = 2 AAs in k = 8 groups, and a sliding window of W = 256 packets.
type Config struct {
	// NumAAs is the number of aggregator arrays, which equals the number of
	// tuple slots in a packet payload (§3.2.1).
	NumAAs int
	// AARows is the number of aggregators in each AA (both copies together;
	// the shadow-copy mechanism splits it in half at runtime, §3.4).
	AARows int
	// KPartBytes is n/8: bytes of key a single aggregator stores (§3.2.1).
	KPartBytes int
	// MediumGroups (k) and MediumSegs (m) configure coalesced placement for
	// variable-length keys: k groups of m physically adjacent AAs handle
	// keys of length (KPartBytes, KPartBytes*m] (§3.2.3).
	MediumGroups int
	MediumSegs   int
	// Window is the sender sliding-window size W in packets (§3.3).
	Window int
	// RetransmitTimeout is the sender's fine-grained per-packet timeout
	// (100µs in the paper vs. Linux's default 200ms).
	RetransmitTimeout time.Duration
	// DataChannels is the number of data channels per host daemon
	// (default 4, §5.1).
	DataChannels int
	// SwapThreshold is the number of received packets after which the host
	// receiver triggers a shadow-copy swap (§3.4), the hot-key agnostic
	// prioritization mechanism. Shadow copies are on exactly when it is
	// positive: every switch region is then split into two copies. Zero
	// disables the mechanism, and a region is one copy of all its rows.
	SwapThreshold int
	// CongestionControl enables the loss-based AIMD congestion window of
	// §7 on every data channel, bounded by Window as the paper requires.
	CongestionControl bool
	// Failover enables the switch-failure failover protocol: host daemons
	// probe the switch for liveness, detect reboots via the epoch stamped in
	// ACKs and probe replies, degrade to host-only aggregation while the
	// switch is unavailable, and re-attach (replaying absorbed history) when
	// it recovers. Requires SwapThreshold 0 (no shadow copies): mid-task swap
	// fetches cannot be attributed to individual packets, which the
	// exactly-once replay reconciliation needs.
	Failover bool
	// MaxRetries bounds per-packet retransmissions on the data channels
	// before the sender aborts the window (the degradation ladder's last
	// rung). Zero means retry forever — the right setting under Failover,
	// where recovery is handled by the replay protocol instead.
	MaxRetries int
	// DisableChecksumVerify turns off end-to-end CRC32C verification on
	// switch and host ingress (wire.Codec.SkipVerify). It exists solely as a
	// fault-injection hook: the chaos soak harness flips it to prove it
	// detects a deployment whose integrity checking is broken. Never set it
	// in production configurations.
	DisableChecksumVerify bool
}

// DefaultConfig returns the paper's prototype configuration.
func DefaultConfig() Config {
	return Config{
		NumAAs:            32,
		AARows:            32768,
		KPartBytes:        4,
		MediumGroups:      8,
		MediumSegs:        2,
		Window:            256,
		RetransmitTimeout: 100 * time.Microsecond,
		DataChannels:      4,
		SwapThreshold:     4096,
	}
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.NumAAs <= 0 || c.NumAAs > 64 {
		return fmt.Errorf("core: NumAAs %d out of range (1..64, bitmap is 64-bit)", c.NumAAs)
	}
	if c.AARows <= 0 {
		return fmt.Errorf("core: AARows must be positive")
	}
	// An aggregator is one 2n-bit register entry (16/32/64-bit, §3.2.1), so
	// the kPart n is at most 32 bits.
	if c.KPartBytes <= 0 || c.KPartBytes > 4 {
		return fmt.Errorf("core: KPartBytes %d out of range (1..4)", c.KPartBytes)
	}
	if c.MediumSegs < 0 || c.MediumGroups < 0 {
		return fmt.Errorf("core: negative medium-key parameters")
	}
	if c.MediumGroups*c.MediumSegs > c.NumAAs {
		return fmt.Errorf("core: medium groups need %d AAs, only %d available",
			c.MediumGroups*c.MediumSegs, c.NumAAs)
	}
	if c.MediumGroups > 0 && c.MediumSegs < 2 {
		return fmt.Errorf("core: MediumSegs must be >= 2 when MediumGroups > 0")
	}
	// The window must be a power of two so the compact seen's even/odd
	// segment parity stays consistent across 32-bit sequence wraparound.
	if c.Window <= 0 || c.Window&(c.Window-1) != 0 {
		return fmt.Errorf("core: Window %d must be a positive power of two", c.Window)
	}
	if c.DataChannels <= 0 {
		return fmt.Errorf("core: DataChannels must be positive")
	}
	if c.SwapThreshold < 0 {
		return fmt.Errorf("core: SwapThreshold must be non-negative")
	}
	if c.SwapThreshold > 0 && c.AARows%2 != 0 {
		return fmt.Errorf("core: AARows must be even with shadow copies (SwapThreshold > 0)")
	}
	if c.Failover && c.SwapThreshold > 0 {
		return fmt.Errorf("core: Failover requires SwapThreshold 0 (replay reconciliation cannot attribute swap fetches to packets)")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("core: MaxRetries must be non-negative")
	}
	return nil
}

// The failover prober (Config.Failover): DefaultProbeInterval is the idle
// spacing between health probes, DefaultProbeMisses the number of consecutive
// unanswered probes after which a daemon declares the switch down and enters
// degraded mode. Constants, not Config fields: no deployment sets them.
const (
	DefaultProbeInterval = 200 * time.Microsecond
	DefaultProbeMisses   = 3
)

// ShortSlots returns the number of packet slots (and AAs) serving short keys,
// i.e. those not dedicated to medium-key groups.
func (c Config) ShortSlots() int { return c.NumAAs - c.MediumGroups*c.MediumSegs }

// MaxMediumKeyBytes returns the longest key (in bytes) a medium group can
// hold; longer keys bypass the switch entirely.
func (c Config) MaxMediumKeyBytes() int { return c.KPartBytes * c.MediumSegs }
