package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func timedFixture() []core.TimedKV {
	return []core.TimedKV{
		{KV: core.KV{Key: "alpha", Val: 1}, At: 0},
		{KV: core.KV{Key: "beta", Val: -7}, At: 1500 * time.Nanosecond},
		{KV: core.KV{Key: "alpha", Val: 2}, At: 1500 * time.Nanosecond},
		{KV: core.KV{Key: "gamma", Val: 1 << 40}, At: 2 * time.Millisecond},
	}
}

func TestTimedTraceRoundTrip(t *testing.T) {
	in := timedFixture()
	hdr := TraceHeader{Scenario: "unit", Seed: 42, Meta: map[string]string{"arrival": "poisson"}}
	var buf bytes.Buffer
	n, err := WriteTimedTrace(&buf, hdr, core.SliceTimedStream(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(in)) {
		t.Fatalf("wrote %d records, want %d", n, len(in))
	}
	got, tkvs, err := ReadTimedTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != TraceVersion || got.Scenario != "unit" || got.Seed != 42 || got.Records != int64(len(in)) {
		t.Fatalf("header round-trip: %+v", got)
	}
	if got.Meta["arrival"] != "poisson" {
		t.Fatalf("meta round-trip: %+v", got.Meta)
	}
	if len(tkvs) != len(in) {
		t.Fatalf("got %d records, want %d", len(tkvs), len(in))
	}
	for i := range in {
		if tkvs[i] != in[i] {
			t.Fatalf("record %d: got %+v want %+v", i, tkvs[i], in[i])
		}
	}
}

func TestReadTraceSniffsV1(t *testing.T) {
	var buf bytes.Buffer
	kvs := []core.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}}
	if _, err := WriteTSV(&buf, core.SliceStream(kvs)); err != nil {
		t.Fatal(err)
	}
	hdr, tkvs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 1 || hdr.Records != 2 {
		t.Fatalf("v1 sniff header: %+v", hdr)
	}
	for i, kv := range kvs {
		if tkvs[i].KV != kv || tkvs[i].At != 0 {
			t.Fatalf("record %d: %+v", i, tkvs[i])
		}
	}
}

func TestReadTraceSniffsV2(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTimedTrace(&buf, TraceHeader{Seed: 9}, core.SliceTimedStream(timedFixture())); err != nil {
		t.Fatal(err)
	}
	hdr, tkvs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != TraceVersion || len(tkvs) != 4 {
		t.Fatalf("v2 sniff: hdr %+v, %d records", hdr, len(tkvs))
	}
}

func TestTimedTraceCorruptionErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceTimedStream(timedFixture())); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	cases := map[string]string{
		"truncated":       strings.Join(lines[:3], "\n") + "\n",
		"trailing data":   good + "zzz\t9\n",
		"bad version":     strings.Replace(good, "\tv2\t", "\tv9\t", 1),
		"mangled header":  strings.Replace(good, `"records"`, `"record!`, 1),
		"bad arrival":     strings.Replace(good, "1500\tbeta", "15x0\tbeta", 1),
		"negative time":   strings.Replace(good, "1500\tbeta", "-1500\tbeta", 1),
		"missing field":   strings.Replace(good, "1500\tbeta\t-7", "1500beta-7", 1),
		"bad value":       strings.Replace(good, "beta\t-7", "beta\tseven", 1),
		"time regression": strings.Replace(good, "2000000\tgamma", "10\tgamma", 1),
	}
	for name, in := range cases {
		if in == good {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, _, err := ReadTimedTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt trace parsed without error", name)
		}
	}
}

func TestTimedTraceErrorsCarryLineNumbers(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceTimedStream(timedFixture())); err != nil {
		t.Fatal(err)
	}
	// Record 2 (line 3) gets a bad value.
	in := strings.Replace(buf.String(), "beta\t-7", "beta\tseven", 1)
	_, _, err := ReadTimedTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

func TestWriteTimedTraceRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceTimedStream([]core.TimedKV{
		{KV: core.KV{Key: "tab\there", Val: 1}},
	})); err == nil {
		t.Error("key with tab accepted")
	}
	buf.Reset()
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceTimedStream([]core.TimedKV{
		{KV: core.KV{Key: "a", Val: 1}, At: time.Second},
		{KV: core.KV{Key: "b", Val: 1}, At: time.Millisecond},
	})); err == nil {
		t.Error("non-monotone arrivals accepted")
	}
}

func TestReadTSVErrorLineNumbers(t *testing.T) {
	_, err := ReadTSV(strings.NewReader("a\t1\nnotab\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
	_, err = ReadTSV(strings.NewReader("a\t1\nb\tx\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestReadTSVTooLongLine(t *testing.T) {
	long := strings.Repeat("k", maxTSVLine+1)
	_, err := ReadTSV(strings.NewReader("ok\t1\n" + long + "\t2\n"))
	if err == nil {
		t.Fatal("over-long line silently accepted")
	}
	for _, want := range []string{"line 2", "exceeds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// FuzzReadTrace asserts the sniffing reader never panics and either parses
// or errors on arbitrary bytes; whatever parses must re-encode cleanly.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteTimedTrace(&buf, TraceHeader{Scenario: "seed", Seed: 3}, core.SliceTimedStream(timedFixture())); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("a\t1\nb\t2\n"))
	f.Add([]byte("#askt\tv2\t{\"version\":2,\"records\":1}\n0\tk\t1\n"))
	f.Add([]byte("#askt\tv2\t{\"version\":2,\"records\":9}\n0\tk\t1\n"))
	f.Add([]byte("#askt\tv9\tjunk\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, tkvs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hdr.Version == TraceVersion {
			var out bytes.Buffer
			if _, werr := WriteTimedTrace(&out, hdr, core.SliceTimedStream(tkvs)); werr != nil {
				t.Fatalf("parsed trace failed to re-encode: %v", werr)
			}
		}
	})
}

func BenchmarkReadTimedTrace(b *testing.B) {
	var buf bytes.Buffer
	tkvs := make([]core.TimedKV, 10_000)
	for i := range tkvs {
		tkvs[i] = core.TimedKV{KV: core.KV{Key: fmt.Sprintf("key%04d", i%512), Val: 1}, At: time.Duration(i) * time.Microsecond}
	}
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceTimedStream(tkvs)); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTimedTrace(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSplitTimedRoundRobinShares: record i goes to sender i mod n in arrival
// order, every share that receives anything is sized once to ⌈len/n⌉, and a
// sender that receives nothing keeps a nil share.
func TestSplitTimedRoundRobinShares(t *testing.T) {
	tkvs := make([]core.TimedKV, 7)
	for i := range tkvs {
		tkvs[i] = core.TimedKV{KV: core.KV{Key: "k", Val: int64(i)}, At: time.Duration(i)}
	}
	parts := SplitTimedRoundRobin(tkvs, 3)
	for s, part := range parts {
		if cap(part) != 3 {
			t.Errorf("sender %d: share capacity %d, want ⌈7/3⌉ = 3", s, cap(part))
		}
		for j, tkv := range part {
			if tkv != tkvs[j*3+s] {
				t.Errorf("sender %d record %d = %v, want %v", s, j, tkv, tkvs[j*3+s])
			}
		}
	}
	if got := len(parts[0]) + len(parts[1]) + len(parts[2]); got != len(tkvs) {
		t.Errorf("shares hold %d records, want %d", got, len(tkvs))
	}
	for s, part := range SplitTimedRoundRobin(tkvs[:2], 4) {
		if (part == nil) != (s >= 2) {
			t.Errorf("2 records over 4 senders: sender %d share %v", s, part)
		}
	}
}
