// Package training reproduces the distributed-training experiment (§5.6):
// a BytePS-style parameter-server loop whose gradient push traverses the
// switch, comparing ASK's value-stream mode against SwitchML-like and
// ATP-like synchronous in-network aggregation and a host-only parameter
// server.
//
// Gradients are pushed as quantized 4-byte integers (as SwitchML and ATP
// do). The systems differ in packet geometry — how many gradient values
// one packet carries and what per-packet overhead it pays — which is what
// drives the throughput differences the paper reports ("SwitchML's small
// packet size cannot fully utilize the network bandwidth"):
//
//   - SwitchML-like: 32 values per packet (conservative per-packet
//     processing on the switch);
//   - ATP-like: 64 values per packet;
//   - ASK value-stream mode: 128 values per packet — the §4/§5.7 chained
//     pipelines configuration, where the sender-assisted addressing of
//     §3.2.2 with F(index)=index lets the plugin carry one base index per
//     packet instead of a key per slot.
package training

import (
	"fmt"
	"time"
)

// Model describes one DNN for the image-classification workload.
type Model struct {
	Name string
	// Params is the parameter (= gradient element) count.
	Params int64
	// Compute is the forward+backward time for one local batch on the
	// paper's RTX 2080 Ti, calibrated to public single-GPU throughputs.
	Compute time.Duration
	// Batch is the per-worker batch size.
	Batch int
}

// GradBytes is the pushed gradient volume (4-byte quantized values).
func (m Model) GradBytes() int64 { return 4 * m.Params }

// Models returns the paper's model zoo (§5.1: ResNet50/101/152 and
// VGG11/16/19 on ImageNet). Parameter counts are the published ImageNet
// model sizes; compute times correspond to ≈200/125/90 images/s/GPU for the
// ResNets and ≈170/120/105 for the VGGs at batch 32 on a 2080 Ti.
func Models() []Model {
	return []Model{
		{Name: "ResNet50", Params: 25_557_032, Compute: 160 * time.Millisecond, Batch: 32},
		{Name: "ResNet101", Params: 44_549_160, Compute: 256 * time.Millisecond, Batch: 32},
		{Name: "ResNet152", Params: 60_192_808, Compute: 356 * time.Millisecond, Batch: 32},
		{Name: "VGG11", Params: 132_863_336, Compute: 188 * time.Millisecond, Batch: 32},
		{Name: "VGG16", Params: 138_357_544, Compute: 267 * time.Millisecond, Batch: 32},
		{Name: "VGG19", Params: 143_667_240, Compute: 305 * time.Millisecond, Batch: 32},
	}
}

// ModelByName looks up a zoo model.
func ModelByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("training: unknown model %q", name)
}

// System selects the gradient-aggregation mechanism.
type System uint8

const (
	// SysASK stands for ASK's value-stream mode (§5.6). It runs the same
	// synchronous-INA push model as ATP and SwitchML (runPush) with ASK's
	// packet geometry, not a value stream through ask.Deployment.
	SysASK System = iota
	// SysATP is an ATP-like synchronous INA with dynamic slot allocation.
	SysATP
	// SysSwitchML is a SwitchML-like synchronous INA with a static slot
	// pool and small packets.
	SysSwitchML
	// SysHostPS is the no-INA baseline: a plain parameter server.
	SysHostPS
)

func (s System) String() string {
	switch s {
	case SysASK:
		return "ASK"
	case SysATP:
		return "ATP"
	case SysSwitchML:
		return "SwitchML"
	case SysHostPS:
		return "HostPS"
	default:
		return "invalid"
	}
}

// geometry is a system's packet format for gradient pushes.
type geometry struct {
	// vals is the number of 4-byte gradient values per packet.
	vals int
	// extra is header overhead beyond the common 78 bytes (tensor id,
	// offset, bitmap, etc.).
	extra int
	// slots is the switch aggregator pool available to the job.
	slots int
}

func (s System) geometry() geometry {
	switch s {
	case SysASK:
		return geometry{vals: 128, extra: 8, slots: 4096}
	case SysATP:
		return geometry{vals: 64, extra: 12, slots: 4096}
	case SysSwitchML:
		return geometry{vals: 32, extra: 4, slots: 2048}
	default:
		return geometry{vals: 256, extra: 8, slots: 0} // HostPS: plain MTU-ish framing
	}
}
