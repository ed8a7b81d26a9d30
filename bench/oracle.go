package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// reduceByKey is the benchmark's one oracle: groupByKey().reduce(sum) over the
// materialised inputs of a task, as a plain map fold. Every result the
// program returns is compared against it.
func reduceByKey(t *task) core.Result {
	want := make(core.Result)
	for _, kvs := range t.plain {
		for _, kv := range kvs {
			want[kv.Key] += kv.Val
		}
	}
	for _, tkvs := range t.timed {
		for _, tkv := range tkvs {
			want[tkv.Key] += tkv.Val
		}
	}
	return want
}

// digest hashes results in task order, each as its sorted (key, value) list,
// so two runs agree on the digest exactly when they agree on every result.
func digest(results []core.Result) string {
	h := sha256.New()
	var num [8]byte
	for _, r := range results {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		binary.BigEndian.PutUint64(num[:], uint64(len(keys)))
		h.Write(num[:])
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
			binary.BigEndian.PutUint64(num[:], uint64(r[k]))
			h.Write(num[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// simRecord is everything about a rep that must repeat exactly: the result
// digest, the virtual completion time and every layer's counters. Host-only
// optimisations leave it untouched; a modelled-design change moves it.
type simRecord struct {
	Digest string `json:"digest"`
	// JCTNs is the virtual completion time of the slowest task.
	JCTNs int64 `json:"jct_ns"`
	// SenderWireBytes sums the senders' uplinks (framing and retransmits in).
	SenderWireBytes int64 `json:"sender_wire_bytes"`
	// ReceiverBusyNs is the cpumodel busy time of the receiving hosts.
	ReceiverBusyNs int64 `json:"receiver_busy_ns"`
	// Counts holds the per-layer counters by metric name (see counts.go).
	Counts map[string]float64 `json:"counts"`
}

// diff lists the fields on which two records disagree; "" when equal.
// acrossSchedulers skips the shard-scheduler counters, the only ones allowed to
// differ between a sharded run and its serial twin.
func (r simRecord) diff(o simRecord, acrossSchedulers bool) string {
	var d []string
	add := func(name string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s %v != %v", name, a, b))
		}
	}
	add("digest", r.Digest, o.Digest)
	add("jct_ns", r.JCTNs, o.JCTNs)
	add("sender_wire_bytes", r.SenderWireBytes, o.SenderWireBytes)
	add("receiver_busy_ns", r.ReceiverBusyNs, o.ReceiverBusyNs)
	for _, name := range countNames {
		if acrossSchedulers && strings.HasPrefix(name, "sim.shard_") {
			continue
		}
		add(name, r.Counts[name], o.Counts[name])
	}
	return strings.Join(d, ", ")
}
