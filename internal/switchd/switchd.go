// Package switchd implements the ASK switch program (§3) on the PISA model
// of internal/pisa:
//
//   - a two-dimensional pool of aggregator arrays (AAs), four per stage,
//     where the i-th packet slot is processed by the i-th AA (§3.2.1);
//   - coalesced medium-key groups that address all member AAs with a
//     unified whole-key row index (§3.2.3);
//   - per-flow reliability state — max_seq stale guard, the compact W-bit
//     seen bitmap, and the PktState bitmap store — giving exactly-once
//     aggregation under loss, duplication, and reordering (§3.3);
//   - the shadow-copy mechanism with a per-region copy indicator flipped by
//     exactly-once swap packets (§3.4, Algorithm 1);
//   - a switch controller that allocates AA row regions to tasks and
//     registers persistent data-channel flows (multi-tenancy, §7).
//
// The pipeline layout (all within Tofino-class budgets, checked by
// internal/pisa at construction):
//
//	stage 0:     max_seq (per flow), swap_seq and clear_seq (per region)
//	stage 1:     copy_indicator (per region), seen (per flow × W, 1 bit)
//	stages 2..9: 32 AAs, 4 per stage, AARows × 2n-bit entries each
//	stage 10:    PktState (per flow × W, NumAAs-bit bitmaps)
package switchd

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Aliases to keep pipeline-program signatures compact.
type (
	pisaPass  = pisa.Pass
	pisaArray = pisa.RegisterArray
)

// Options sizes the switch's per-flow and per-region state.
type Options struct {
	// MaxFlows bounds registered data-channel flows (hosts × channels).
	MaxFlows int
	// MaxRegions bounds concurrently allocated task regions.
	MaxRegions int
	// Pipeline overrides the PISA resource model (zero value = default).
	Pipeline pisa.Config
	// Telemetry is the cluster observability sink. The zero value gives
	// the switch a private registry so Stats views still work, with
	// tracing disabled.
	Telemetry telemetry.Sink
	// Addr is the switch's own fabric address for multi-switch topologies
	// (leaf/spine roles). Zero keeps the single-switch behaviour: the
	// switch terminates every Fetch/Swap it sees, whatever the frame's
	// destination. Non-zero, it terminates only requests addressed to it
	// and forwards the rest toward their destination — which is what lets
	// a receiver read a spine's region through its leaf.
	Addr core.HostID
	// SeqTaggedSeen switches the receive window from the 1-bit compact
	// parity seen (§3.3, Eq. 8) to a 33-bit sequence-tagged seen. The
	// compact design assumes the switch observes every sequence number of
	// a flow; a re-aggregation tier (a fat-tree spine) sees only the
	// leaves' conflict residuals, where sequence gaps alias the parity
	// trick into false duplicates. First-hop switches leave this off.
	SeqTaggedSeen bool
}

// DefaultOptions supports the paper's deployment scale: a 64-server rack
// with up to 8 channels each, and 64 concurrent tasks.
func DefaultOptions() Options {
	return Options{MaxFlows: 512, MaxRegions: 64, Pipeline: pisa.DefaultConfig()}
}

// Switch is the ASK switch: a netsim.SwitchHandler running the ASK pipeline
// program plus its control plane. One Switch is one rack's TOR program
// state and lives on one lane of a sharded fabric: its data path reaches
// beyond its own fields only through the fabric interface, and its control
// plane is called from the fabric's control rendezvous.
type Switch struct {
	sim    *sim.Simulation
	net    netsim.SwitchFabric
	cfg    core.Config
	layout *keyspace.Layout
	opts   Options
	pipe   *pisa.Pipeline

	// Register arrays (data-plane state). layoutPipeline is the one place
	// that decides each array's stage; the stages below are its layout, in
	// words. internal/pisa panics on a pass that accesses an array twice or
	// visits an earlier stage after a later one.
	raMaxSeq   *pisa.RegisterArray   // per flow: 32-bit max_seq (stage 0)
	raSwapSeq  *pisa.RegisterArray   // per region: 32-bit swap sequence (stage 0)
	raClearSeq *pisa.RegisterArray   // per region: 32-bit clear sequence (stage 0)
	raCopyInd  *pisa.RegisterArray   // per region: 1-bit copy indicator (stage 1)
	raSeen     *pisa.RegisterArray   // per flow × W: compact or seq-tagged seen (stage 1)
	raPktState *pisa.RegisterArray   // per flow × W: NumAAs-bit bitmap (the stage after the last AA)
	raAAs      []*pisa.RegisterArray // four per stage from stage 2

	// Control-plane state (match-action table contents, not SRAM registers).
	flows      map[core.FlowKey]int
	nextFlow   int
	regions    map[core.TaskID]*Region
	regionFree []int
	rows       *rowAllocator

	// codec decodes frames that arrive as damaged raw bytes (netsim
	// corruption faults); SkipVerify mirrors Config.DisableChecksumVerify,
	// the soak harness's deliberately-broken-build hook.
	codec wire.Codec

	// fetchBuf is processFetch's snapshot scratch, reused by every fetch: the
	// replies carry copies (wire.NewFetchReply), so nothing points into it
	// once processFetch returns.
	fetchBuf []wire.FetchEntry

	// Failure model (failover.go): incarnation epoch stamped on non-data
	// egress packets, and the crashed flag that black-holes all traffic.
	epoch uint32
	down  bool

	// Telemetry (metrics.go): instruments live on reg; met caches the
	// hot-path pointers; tasks maps task → per-task counters. tasksMu also
	// guards each entry's base snapshot.
	reg     *telemetry.Registry
	tr      *telemetry.Tracer
	met     switchMetrics
	tasksMu sync.RWMutex
	tasks   map[core.TaskID]*taskEntry
}

// Region is a task's allocation of switch memory: the same row range on
// every AA (§3.1 step ③).
type Region struct {
	Task     core.TaskID
	Receiver core.HostID
	Op       core.Op
	// Lo is the first row; the region spans [Lo, Lo+TotalRows) on every AA.
	Lo        int
	TotalRows int
	// CopyRows is the size of one shadow copy: TotalRows/2 with the shadow
	// copy mechanism enabled, TotalRows without.
	CopyRows int
	Copies   int
	// Revoked marks a region whose aggregation has been disabled by the
	// controller (failover.go RevokeRegion); its memory stays readable
	// until the receiver drains and frees it.
	Revoked bool
	// Partition restricts aggregation to a tenant's keyspace band
	// (multi-tenant fabrics). The zero value is the whole keyspace and
	// selects the exact single-tenant loops. Regions are always
	// row-disjoint (one global row allocator), so fetches and clears over
	// [Lo, Lo+TotalRows) stay safe whatever the column band: columns
	// outside the partition are simply never written in those rows.
	Partition keyspace.Partition
	idx       int // index into copy_indicator/swap_seq
}

// New builds the ASK switch program for cfg and attaches it to the network.
func New(s *sim.Simulation, net netsim.SwitchFabric, cfg core.Config, opts Options) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	if opts.MaxFlows <= 0 || opts.MaxRegions <= 0 {
		return nil, fmt.Errorf("switchd: MaxFlows and MaxRegions must be positive")
	}
	pc := opts.Pipeline
	if pc.Stages == 0 {
		pc = pisa.DefaultConfig()
	}
	sw := &Switch{
		sim:    s,
		net:    net,
		cfg:    cfg,
		layout: layout,
		opts:   opts,
		pipe:   pisa.NewPipeline(pc),
		flows:  make(map[core.FlowKey]int),
		tasks:  make(map[core.TaskID]*taskEntry),
		codec:  wire.NewCodec(cfg.KPartBytes).WithSkipVerify(cfg.DisableChecksumVerify),
		epoch:  1,
	}
	sw.initMetrics(opts.Telemetry)
	sw.resetRegions()
	if err := sw.layoutPipeline(pc); err != nil {
		return nil, err
	}
	sw.pipe.AttachTelemetry(sw.reg)
	net.AttachSwitch(sw)
	return sw, nil
}

// layoutPipeline declares every register array, which validates the program
// against the PISA resource model.
func (sw *Switch) layoutPipeline(pc pisa.Config) error {
	w := sw.cfg.Window
	var err error
	add := func(stage int, name string, entries, width int) *pisa.RegisterArray {
		if err != nil {
			return nil
		}
		var ra *pisa.RegisterArray
		ra, err = sw.pipe.AddArray(stage, name, entries, width)
		return ra
	}
	sw.raMaxSeq = add(0, "max_seq", sw.opts.MaxFlows, 32)
	sw.raSwapSeq = add(0, "swap_seq", sw.opts.MaxRegions, 32)
	sw.raClearSeq = add(0, "clear_seq", sw.opts.MaxRegions, 32)
	sw.raCopyInd = add(1, "copy_indicator", sw.opts.MaxRegions, 1)
	seenWidth := 1
	if sw.opts.SeqTaggedSeen {
		// Gap-tolerant seen for re-aggregation tiers: 32-bit tag + valid.
		seenWidth = 33
	}
	sw.raSeen = add(1, "seen", sw.opts.MaxFlows*w, seenWidth)
	// AAs: four per stage starting at stage 2.
	aaStage0 := 2
	for i := 0; i < sw.cfg.NumAAs; i++ {
		ra := add(aaStage0+i/4, fmt.Sprintf("aa%d", i), sw.cfg.AARows, 2*8*sw.cfg.KPartBytes)
		sw.raAAs = append(sw.raAAs, ra)
	}
	pktStage := aaStage0 + (sw.cfg.NumAAs+3)/4
	sw.raPktState = add(pktStage, "pkt_state", sw.opts.MaxFlows*w, sw.cfg.NumAAs)
	if err != nil {
		return fmt.Errorf("switchd: pipeline layout does not fit: %w", err)
	}
	sw.pipe.Seal()
	return nil
}

// Pipeline exposes the underlying PISA pipeline (for resource assertions in
// tests and the SRAM accounting in EXPERIMENTS.md).
func (sw *Switch) Pipeline() *pisa.Pipeline { return sw.pipe }

// Config returns the deployment configuration.
func (sw *Switch) Config() core.Config { return sw.cfg }

// kPartN extracts the n-bit key part from a packed 64-bit kPart.
func (sw *Switch) kPartN(kp uint64) uint64 {
	return kp >> uint(64-8*sw.cfg.KPartBytes)
}

// nMask returns the n-bit value mask.
func (sw *Switch) nMask() uint64 {
	n := uint(8 * sw.cfg.KPartBytes)
	if n == 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// decodeVal sign-extends an n-bit vPart to int64.
func (sw *Switch) decodeVal(v uint64) int64 {
	shift := uint(64 - 8*sw.cfg.KPartBytes)
	return int64(v<<shift) >> shift
}

// encodeVal truncates an int64 to the n-bit vPart representation.
func (sw *Switch) encodeVal(v int64) uint64 { return uint64(v) & sw.nMask() }

// splitmix64 is the switch-internal row-addressing hash. Row addressing
// never leaves the switch (hosts aggregate residues by key string), so a
// cheap integer mixer over the packed key material suffices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RowIndex returns the aggregator row a tuple with the given packed key
// segments maps to within a copy of `rows` rows. Exported for experiment
// harnesses that construct collision-free key pools (the paper's
// "all keys fit in switch memory" microbenchmark regime, §2.2.2).
func RowIndex(kparts []uint64, rows int) int {
	return int(rowHash(kparts...) % uint64(rows))
}

// rowHash mixes the packed key segments of one logical tuple into a row
// index hash; medium groups pass all member kParts (the unified index of
// §3.2.3).
func rowHash(kparts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, kp := range kparts {
		h = splitmix64(h ^ kp)
	}
	return h
}

// FreeRows returns the number of unallocated aggregator rows (for leak
// checks and capacity planning).
func (sw *Switch) FreeRows() int { return sw.rows.totalFree() }
