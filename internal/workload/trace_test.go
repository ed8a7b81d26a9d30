package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// The records of a v2 trace are tab-separated lines; these tests hold the
// untimed use of the format: a plain stream written at offset zero, as
// cmd/askgen writes a dataset.

func TestTSVRoundtrip(t *testing.T) {
	spec := Dataset("NG", 2000, 3)
	var buf bytes.Buffer
	n, err := WriteTimedTrace(&buf, TraceHeader{Seed: 3}, spec.Stream().Timed())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("wrote %d tuples", n)
	}
	_, got, err := ReadTimedTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Collect(spec.Stream())
	if len(got) != len(want) {
		t.Fatalf("read %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].KV != want[i] || got[i].At != 0 {
			t.Fatalf("tuple %d: %v vs %v at offset zero", i, got[i], want[i])
		}
	}
}

func TestTSVNegativeValues(t *testing.T) {
	var buf bytes.Buffer
	in := []core.KV{{Key: "a", Val: -42}, {Key: "b", Val: 0}}
	if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceStream(in).Timed()); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTimedTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Val != -42 || got[1].Val != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestTSVRejectsDelimiterKeys(t *testing.T) {
	for _, key := range []string{"a\tb", "a\nb"} {
		var buf bytes.Buffer
		if _, err := WriteTimedTrace(&buf, TraceHeader{}, core.SliceStream([]core.KV{{Key: key, Val: 1}}).Timed()); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

// TestReadTSVErrors: a record without a value, with a bad value, or blank
// is an error — the header announced it, so there is no line to skip.
func TestReadTSVErrors(t *testing.T) {
	for _, in := range []string{v2("0\tnotab"), v2("0\tk\tnotanumber"), v2("0\tk\t5", "", "0\tq\t7")} {
		if _, _, err := ReadTimedTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("%q accepted", in)
		}
	}
	_, got, err := ReadTimedTrace(strings.NewReader(v2("0\tk\t5", "0\tq\t7")))
	if err != nil || len(got) != 2 {
		t.Fatalf("two records: %v %v", got, err)
	}
}
