package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTSVRoundtrip(t *testing.T) {
	spec := Dataset("NG", 2000, 3)
	var buf bytes.Buffer
	n, err := WriteTSV(&buf, spec.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("wrote %d tuples", n)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Collect(spec.Stream())
	if len(got) != len(want) {
		t.Fatalf("read %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTSVNegativeValues(t *testing.T) {
	var buf bytes.Buffer
	in := []core.KV{{Key: "a", Val: -42}, {Key: "b", Val: 0}}
	if _, err := WriteTSV(&buf, core.SliceStream(in)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Val != -42 || got[1].Val != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestTSVRejectsDelimiterKeys(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTSV(&buf, core.SliceStream([]core.KV{{Key: "a\tb", Val: 1}})); err == nil {
		t.Fatal("tab key accepted")
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("notab\n")); err == nil {
		t.Fatal("missing tab accepted")
	}
	if _, err := ReadTSV(strings.NewReader("k\tnotanumber\n")); err == nil {
		t.Fatal("bad value accepted")
	}
	got, err := ReadTSV(strings.NewReader("k\t5\n\nq\t7\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("blank-line handling: %v %v", got, err)
	}
}
