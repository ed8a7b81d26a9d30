package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// TestSeedReproducibility locks askgen's determinism contract: the same
// flags with the same seed produce byte-identical output, for both the
// classic TSV path and scenario recording.
func TestSeedReproducibility(t *testing.T) {
	gen := func(seed int64) []byte {
		spec := workload.Zipf(512, 2_000, 1.1, workload.Shuffled, seed)
		spec.KeyLens = workload.NaturalLanguage(0)
		var buf bytes.Buffer
		if _, err := workload.WriteTSV(&buf, spec.Stream()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("same seed produced different TSV traces")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds produced identical TSV traces")
	}

	rec := func(seed int64) []byte {
		var buf bytes.Buffer
		if _, err := recordScenario(&buf, "flash-crowd", 2_000, seed); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(rec(7), rec(7)) {
		t.Error("same seed produced different scenario traces")
	}
	if bytes.Equal(rec(7), rec(8)) {
		t.Error("different seeds produced identical scenario traces")
	}
}

// TestRecordScenarioHeader checks a recorded trace round-trips with the
// right identity: scenario name, overridden seed and length, v2 format.
func TestRecordScenarioHeader(t *testing.T) {
	var buf bytes.Buffer
	n, err := recordScenario(&buf, "steady-poisson", 1_500, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1_500 {
		t.Fatalf("recorded %d tuples, want 1500", n)
	}
	hdr, tkvs, err := workload.ReadTimedTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != workload.TraceVersion || hdr.Scenario != "steady-poisson" ||
		hdr.Seed != 99 || hdr.Records != 1_500 {
		t.Fatalf("header: %+v", hdr)
	}
	if int64(len(tkvs)) != 1_500 {
		t.Fatalf("decoded %d records", len(tkvs))
	}

	if _, err := recordScenario(&buf, "no-such-scenario", 0, 0); err == nil {
		t.Error("recordScenario accepted an unknown scenario")
	}
}

// TestListScenarios keeps the listing in sync with the registry.
func TestListScenarios(t *testing.T) {
	var buf bytes.Buffer
	listScenarios(&buf)
	for _, name := range scenario.Names() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("listing is missing scenario %q", name)
		}
	}
}
