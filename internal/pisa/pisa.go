// Package pisa models the Protocol Independent Switch Architecture (§2.2.1)
// closely enough to enforce the hardware restrictions that shape ASK's
// design:
//
//   - a pipeline is a fixed sequence of match-action stages;
//   - each stage has isolated, scarce SRAM (1280 KB on Tofino-class
//     hardware) that programs declare as register arrays;
//   - at most four register arrays fit in one stage;
//   - a packet traverses the stages of a pipeline sequentially exactly once
//     per pass, and each register array can be read and written at most once
//     during that pass (a single atomic read-modify-write);
//   - a stage processes one packet at a time, so a register action is atomic
//     with respect to other packets.
//
// Programs that violate these restrictions panic at build or access time —
// the same wall a P4 programmer hits at compile time — which keeps the ASK
// switch program (internal/switchd) honest about its vectorization and
// memory layout.
package pisa

import (
	"fmt"
	"strings"
)

// Config describes the pipeline resources of one switch pipeline.
type Config struct {
	// Stages is the number of match-action stages in the pipeline.
	Stages int
	// MaxArraysPerStage bounds the register arrays declared per stage.
	MaxArraysPerStage int
	// SRAMPerStageBytes is each stage's isolated SRAM budget.
	SRAMPerStageBytes int
}

// DefaultConfig returns Tofino-class resources (§3.2.1: 1280 KB/stage ×
// 16 stages per pipeline, 4 register arrays per stage).
func DefaultConfig() Config {
	return Config{
		Stages:            16,
		MaxArraysPerStage: 4,
		SRAMPerStageBytes: 1280 << 10,
	}
}

// Pipeline is one switch pipeline being programmed and then exercised.
type Pipeline struct {
	cfg    Config
	stages []*stage
	sealed bool
	passes uint64
}

type stage struct {
	index     int
	arrays    []*RegisterArray
	sramBytes int
}

// RegisterArray is stateful per-stage SRAM: a fixed array of entries of a
// fixed bit width, supporting one atomic read-modify-write per packet pass.
type RegisterArray struct {
	name      string
	stage     int
	widthBits int
	mask      uint64
	entries   []uint64
	lastPass  uint64
	accesses  uint64
}

// NewPipeline returns an empty pipeline with the given resources.
func NewPipeline(cfg Config) *Pipeline {
	if cfg.Stages <= 0 || cfg.MaxArraysPerStage <= 0 || cfg.SRAMPerStageBytes <= 0 {
		panic("pisa: invalid pipeline config")
	}
	p := &Pipeline{cfg: cfg}
	for i := 0; i < cfg.Stages; i++ {
		p.stages = append(p.stages, &stage{index: i})
	}
	return p
}

// AddArray declares a register array with entries×widthBits of SRAM in the
// given stage. It returns an error if the program no longer fits: too many
// arrays in the stage, SRAM budget exceeded, or the pipeline is sealed.
func (p *Pipeline) AddArray(stageIdx int, name string, entries, widthBits int) (*RegisterArray, error) {
	if p.sealed {
		return nil, fmt.Errorf("pisa: pipeline sealed, cannot add %q", name)
	}
	if stageIdx < 0 || stageIdx >= len(p.stages) {
		return nil, fmt.Errorf("pisa: stage %d out of range [0,%d)", stageIdx, len(p.stages))
	}
	if entries <= 0 {
		return nil, fmt.Errorf("pisa: array %q must have positive entries", name)
	}
	if widthBits <= 0 || widthBits > 64 {
		return nil, fmt.Errorf("pisa: array %q width %d out of range (1..64)", name, widthBits)
	}
	st := p.stages[stageIdx]
	if len(st.arrays) >= p.cfg.MaxArraysPerStage {
		return nil, fmt.Errorf("pisa: stage %d already has %d register arrays (max %d)",
			stageIdx, len(st.arrays), p.cfg.MaxArraysPerStage)
	}
	bytes := (entries*widthBits + 7) / 8
	if st.sramBytes+bytes > p.cfg.SRAMPerStageBytes {
		return nil, fmt.Errorf("pisa: array %q (%d B) exceeds stage %d SRAM budget (%d of %d B used)",
			name, bytes, stageIdx, st.sramBytes, p.cfg.SRAMPerStageBytes)
	}
	st.sramBytes += bytes
	var mask uint64
	if widthBits == 64 {
		mask = ^uint64(0)
	} else {
		mask = (1 << uint(widthBits)) - 1
	}
	ra := &RegisterArray{
		name:      name,
		stage:     stageIdx,
		widthBits: widthBits,
		mask:      mask,
		entries:   make([]uint64, entries),
	}
	st.arrays = append(st.arrays, ra)
	return ra, nil
}

// MustAddArray is AddArray that panics on error, for static program layout.
func (p *Pipeline) MustAddArray(stageIdx int, name string, entries, widthBits int) *RegisterArray {
	ra, err := p.AddArray(stageIdx, name, entries, widthBits)
	if err != nil {
		panic(err)
	}
	return ra
}

// Seal finalizes the program layout; no further arrays may be added.
func (p *Pipeline) Seal() { p.sealed = true }

// SRAMBytes returns the total SRAM declared across all stages.
func (p *Pipeline) SRAMBytes() int {
	total := 0
	for _, st := range p.stages {
		total += st.sramBytes
	}
	return total
}

// Passes returns the number of packet passes begun so far.
func (p *Pipeline) Passes() uint64 { return p.passes }

// Pass represents one packet traversing the pipeline. Register accesses
// during the pass are checked for PISA legality: stages must be visited in
// non-decreasing order and each array at most once.
type Pass struct {
	pipe     *Pipeline
	id       uint64
	curStage int
}

// Begin starts a new packet pass.
func (p *Pipeline) Begin() *Pass {
	if !p.sealed {
		// Auto-seal on first traffic: layout is complete once packets flow.
		p.sealed = true
	}
	p.passes++
	return &Pass{pipe: p, id: p.passes, curStage: -1}
}

// RMW performs the array's single allowed access for this pass: an atomic
// read-modify-write of entry idx. action receives the current value and
// returns the value to store and an arbitrary result to surface (e.g. the
// previous value, or a match flag). It panics on PISA violations: a second
// access in the same pass, visiting an earlier stage, or a bad index.
func (ra *RegisterArray) RMW(ps *Pass, idx int, action func(cur uint64) (next, result uint64)) uint64 {
	if ra.lastPass == ps.id {
		panic(fmt.Sprintf("pisa: register array %q accessed twice in one pass", ra.name))
	}
	if ra.stage < ps.curStage {
		panic(fmt.Sprintf("pisa: pass moved backwards to stage %d (array %q) after stage %d",
			ra.stage, ra.name, ps.curStage))
	}
	if idx < 0 || idx >= len(ra.entries) {
		panic(fmt.Sprintf("pisa: array %q index %d out of range [0,%d)", ra.name, idx, len(ra.entries)))
	}
	ps.curStage = ra.stage
	ra.lastPass = ps.id
	ra.accesses++
	next, result := action(ra.entries[idx])
	ra.entries[idx] = next & ra.mask
	return result
}

// ControlRead reads entry idx from the control plane (no pass semantics).
// Control-plane access does not contend with the data plane in this model;
// on real hardware it is orders of magnitude slower, which callers model
// with explicit latency.
func (ra *RegisterArray) ControlRead(idx int) uint64 { return ra.entries[idx] }

// ControlWrite writes entry idx from the control plane.
func (ra *RegisterArray) ControlWrite(idx int, v uint64) { ra.entries[idx] = v & ra.mask }

// ControlFill sets entries [lo,hi) to v from the control plane.
func (ra *RegisterArray) ControlFill(lo, hi int, v uint64) {
	if lo < 0 || hi > len(ra.entries) || lo > hi {
		panic(fmt.Sprintf("pisa: ControlFill range [%d,%d) out of bounds for %q", lo, hi, ra.name))
	}
	v &= ra.mask
	for i := lo; i < hi; i++ {
		ra.entries[i] = v
	}
}

// Describe renders the pipeline layout as a table: per stage, the declared
// register arrays with entry counts, widths, and SRAM use — the P4
// programmer's resource view.
func (p *Pipeline) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PISA pipeline: %d stages, %d KB SRAM/stage, max %d register arrays/stage\n",
		p.cfg.Stages, p.cfg.SRAMPerStageBytes>>10, p.cfg.MaxArraysPerStage)
	for i, st := range p.stages {
		if len(st.arrays) == 0 {
			continue
		}
		fmt.Fprintf(&b, "stage %2d: %4d KB", i, st.sramBytes>>10)
		for _, ra := range st.arrays {
			fmt.Fprintf(&b, "  [%s: %d x %db]", ra.name, len(ra.entries), ra.widthBits)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total SRAM: %.2f MB\n", float64(p.SRAMBytes())/(1<<20))
	return b.String()
}
