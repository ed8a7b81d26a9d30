package training

import (
	"testing"
	"time"
)

func TestModelZoo(t *testing.T) {
	ms := Models()
	if len(ms) != 6 {
		t.Fatalf("zoo has %d models", len(ms))
	}
	for _, m := range ms {
		if m.Params <= 0 || m.Compute <= 0 || m.Batch <= 0 {
			t.Fatalf("bad model %+v", m)
		}
	}
	if _, err := ModelByName("ResNet50"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByName("AlexNet"); err == nil {
		t.Fatal("unknown model accepted")
	}
	// VGGs carry far more parameters than ResNets (comm-heavier).
	r50, _ := ModelByName("ResNet50")
	v16, _ := ModelByName("VGG16")
	if v16.Params < 5*r50.Params {
		t.Fatal("VGG16/ResNet50 parameter ratio off")
	}
}

func TestPushAggregatesExactlyOnce(t *testing.T) {
	// runPush fails internally if any chunk is double-counted or lost.
	d, err := runPush(pushConfig{
		workers: 4,
		chunks:  2000,
		geom:    SysSwitchML.geometry(),
		seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no push time")
	}
}

func TestPushScalesWithWorkersGently(t *testing.T) {
	// INA: push time is nearly independent of worker count (each worker
	// pushes on its own link; the switch absorbs the fan-in).
	g := SysASK.geometry()
	d2, err := runPush(pushConfig{workers: 2, chunks: 3000, geom: g, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d8, err := runPush(pushConfig{workers: 8, chunks: 3000, geom: g, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(d8) / float64(d2); ratio > 1.5 {
		t.Fatalf("push time grew %.2f× from 2→8 workers; INA fan-in broken", ratio)
	}
}

func TestMulticastPull(t *testing.T) {
	d, err := runMulticastPull(8, 10<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 MB at ~95 Gbps goodput ≈ 0.88 ms; switch replication means worker
	// count does not multiply it.
	if d <= 0 || d > 5*time.Millisecond {
		t.Fatalf("pull time %v", d)
	}
	d2, err := runMulticastPull(2, 10<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(d) / float64(d2); ratio > 1.2 {
		t.Fatalf("multicast pull scaled with workers (%.2f×)", ratio)
	}
}

func TestTrainThroughputOrdering(t *testing.T) {
	m, _ := ModelByName("VGG16") // comm-heavy: differences visible
	opts := Options{Workers: 8, GradScale: 512, Seed: 1}
	var imgs = map[System]float64{}
	for _, sys := range []System{SysASK, SysATP, SysSwitchML, SysHostPS} {
		rep, err := Train(m, sys, opts)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if rep.ImagesPerSec <= 0 {
			t.Fatalf("%v: no throughput", sys)
		}
		imgs[sys] = rep.ImagesPerSec
	}
	// Fig. 12 shape: the INA systems are similar and all beat the host PS;
	// SwitchML trails ASK/ATP slightly on comm-heavy models.
	if imgs[SysHostPS] >= imgs[SysSwitchML] {
		t.Fatalf("HostPS %.0f ≥ SwitchML %.0f", imgs[SysHostPS], imgs[SysSwitchML])
	}
	if imgs[SysSwitchML] > imgs[SysASK] {
		t.Fatalf("SwitchML %.0f above ASK %.0f", imgs[SysSwitchML], imgs[SysASK])
	}
	// "Similar performance": ASK within 25% of ATP.
	if r := imgs[SysASK] / imgs[SysATP]; r < 0.75 || r > 1.35 {
		t.Fatalf("ASK/ATP ratio %.2f not 'similar'", r)
	}
}

func TestTrainComputeBoundResNet(t *testing.T) {
	// ResNet50 at 100 Gbps is compute-dominated: INA choice changes little.
	m, _ := ModelByName("ResNet50")
	opts := Options{Workers: 8, GradScale: 512, Seed: 1}
	a, err := Train(m, SysASK, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Train(m, SysSwitchML, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := a.ImagesPerSec / s.ImagesPerSec; r > 1.5 {
		t.Fatalf("ResNet50 ASK/SwitchML gap %.2f too large for a compute-bound model", r)
	}
	if a.Compute != m.Compute {
		t.Fatal("compute time not reported")
	}
}

func TestSystemStrings(t *testing.T) {
	for _, s := range []System{SysASK, SysATP, SysSwitchML, SysHostPS, System(42)} {
		if s.String() == "" {
			t.Fatal("empty system name")
		}
	}
}
