package chaos

// Chaos soak: seeded random-walk fault schedules over full end-to-end
// aggregation runs, with an invariant harness and a shrinker.
//
// A soak is three deterministic steps, the same for every soak kind:
//
//  1. GenerateSchedule draws a fault script from a seeded PRNG, with event
//     times expressed in thousandths of the fault-free task duration so the
//     same schedule lands mid-task at any workload size.
//  2. Run replays the script against a fresh deployment and checks the
//     kind's invariants against host-computed ground truth.
//  3. On violation, ShrinkWith re-runs prefixes and single-event elisions of
//     the schedule until no event can be removed without the failure
//     disappearing, and the Report prints the minimal schedule plus a
//     one-line reproducer (`asksim -soak -soak.seed=N ...`).
//
// The harness is topology-blind: it drives an *ask.Deployment through Start,
// Hosts and Switches. What distinguishes the four kinds — the rack soak,
// the fat-tree fabric-outage soak, the tenant-kill isolation soak and the
// multi-rack TOR-outage soak — is data in the kinds table: deployment
// options, jobs, the event table and its draw order, the invariant
// list, and the reproducer flags.
//
// Everything is derived from Config.Seed — the workloads, the schedule, the
// link-fault RNG — so a reproducer seed replays the exact failure. The
// harness itself is deterministic: no wall clock, no global randomness
// (simdeterminism-checked).

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// Kind selects a soak flavour.
type Kind int

const (
	// Rack soaks one rack: switch outages, link black-holes, loss and
	// corruption bursts and host stalls against a single task.
	Rack Kind = iota
	// FabricOutage soaks a multi-tenant fat-tree: addressed spine and leaf
	// outages mixed with link black-holes and corruption bursts, one
	// fabric-spanning task per tenant.
	FabricOutage
	// TenantKill black-holes one tenant's sender on a multi-tenant fat-tree
	// past a bounded retry budget and checks that the blast radius stops at
	// the tenant boundary: every other tenant finishes exactly, the victim
	// bridges the holes or aborts cleanly (never a silent partial result).
	TenantKill
	// MultiRackOutage soaks the §7 multi-rack deployment: addressed TOR
	// outages (the receiver's rack included) mixed with link black-holes,
	// loss and corruption bursts and host stalls, against one task with a
	// rack-local sender and a sender in every other rack.
	MultiRackOutage
)

// Config parameterizes one soak. Zero fields other than Kind, Seed, Base and
// DisableChecksumVerify are replaced by the kind's defaults; two runs with
// equal configs are identical.
type Config struct {
	Kind Kind
	// Seed drives everything: workload contents, schedule generation, and
	// the deployment's fault RNG.
	Seed int64
	// Events is the number of fault events to draw (default 6; TenantKill 3).
	Events int
	// Senders is the Rack soak's sending hosts (default 2; the receiver is
	// host 0, so the rack has Senders+1 hosts).
	Senders int
	// Spines and Leaves size the FabricOutage fat-tree (defaults 2 and 3:
	// receivers on leaf 0, senders on every other leaf, so every task has
	// cross-leaf residue for the spine tier). TenantKill runs on 2×2.
	// MultiRackOutage has Leaves racks of two hosts under its forwarding core.
	Spines, Leaves int
	// Tuples per sender (default 30 000 on the rack, 20 000 on the fat-tree)
	// over soakKeys distinct keys.
	Tuples int64
	// Retries bounds TenantKill's per-packet retransmissions (default 4): a
	// hole longer than the budget aborts the victim's stream instead of
	// stalling the fabric forever. The other kinds retry without bound — an
	// abort there is an invariant violation, not a scripted outcome.
	Retries int
	// Base is a fault model applied to every host link for the whole run,
	// on top of the scheduled events — e.g. Fault{CorruptProb: 1e-3} soaks
	// the checksum path continuously.
	Base netsim.Fault
	// DisableChecksumVerify mirrors core.Config.DisableChecksumVerify into
	// the rack under test: the deliberately-broken build the harness must
	// catch. Never set outside tests of the harness itself.
	DisableChecksumVerify bool
}

// soakKeys is every soak stream's distinct-key count. FabricOutage runs
// fabricTenants concurrent tenants and TenantKill killTenants, each with
// weight 1, one host per leaf, and one task; victim is the TenantKill tenant
// whose sender gets black-holed.
const (
	soakKeys                    = 512
	fabricTenants               = 2
	killTenants                 = 3
	victim        core.TenantID = 1
)

// kind is everything that distinguishes one soak flavour, as data.
type kind struct {
	name     string
	defaults Config
	// build constructs the deployment under test.
	build func(Config) (*ask.Deployment, error)
	// jobs lays out the tasks with their host-computed ground truth (fresh
	// streams on every call).
	jobs func(Config) []*ask.Job
	// events is the table a schedule draws its event kinds from, in draw
	// order; a one-entry table draws nothing. Start and duration are then
	// drawn from [startLo, startLo+startSpan) and [durLo, durLo+durSpan)
	// millis of scale, then the target: a switch address for the addressed
	// outages, host(rng) for link and stall faults. Reordering any of this
	// reshuffles every seed of the kind.
	events                             []EventKind
	startLo, startSpan, durLo, durSpan int64
	host                               func(*rand.Rand, Config) core.HostID
	// invariants are checked in order at quiescence; each returns "" or a
	// one-line violation.
	invariants []func(*replay) string
	// note qualifies a passing report's summary line; flags are the kind's
	// reproducer flags ("" when asksim cannot run the kind).
	note  func(Report) string
	flags func(Config) string
}

// OutageConfig is the configuration every switch-outage run starts from —
// the outage soaks and the chaos and fabric-chaos experiments: failover on,
// so a switch outage degrades tasks to host-only aggregation instead of
// deadlocking them; retries unbounded (MaxRetries 0), so black-holes are
// bridged, not aborted; and shadow copies off, because core.Config.Validate
// rejects Failover with SwapThreshold > 0 (replay reconciliation cannot
// attribute swap fetches to packets). ROADMAP items 6 and 11(c) track
// lifting that rule, which puts the shadow copies back here.
func OutageConfig() core.Config {
	c := core.DefaultConfig()
	c.SwapThreshold = 0
	c.Failover = true
	return c
}

// soakConfig is OutageConfig with the checksum-verification fault hook
// mirrored in.
func soakConfig(cfg Config) core.Config {
	c := OutageConfig()
	c.DisableChecksumVerify = cfg.DisableChecksumVerify
	return c
}

// fatTree builds the multi-tenant fat-tree both fabric kinds run on: one
// host per tenant per leaf (leaf-major IDs, so slot i of leaf l is host
// l·tenants+i), equal weights.
func fatTree(cfg Config, c core.Config, spines, leaves, tenants int) (*ask.Deployment, error) {
	link := netsim.DefaultLinkConfig()
	link.Fault = cfg.Base
	opts := ask.FatTreeOptions{
		Spines: spines, Leaves: leaves, HostsPerLeaf: tenants,
		Config: c, HostLink: link, Seed: cfg.Seed,
	}
	for i := 0; i < tenants; i++ {
		opts.Tenants = append(opts.Tenants, tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: 1})
	}
	fc, err := ask.NewFatTreeCluster(opts)
	if err != nil {
		return nil, err
	}
	return &fc.Deployment, nil
}

// tenantJobs gives each of the tenants one task: receiver in its slot of
// leaf 0, a sender in its slot of every leaf in [1, leaves), stream seeds
// offset by seedOff(tenant index, leaf).
func tenantJobs(cfg Config, leaves, tenants int, seedOff func(i, l int) int64) []*ask.Job {
	jobs := make([]*ask.Job, 0, tenants)
	for i := 0; i < tenants; i++ {
		j := ask.NewJob(core.TaskSpec{ID: core.MakeTaskID(core.TenantID(i+1), uint32(i+1)), Receiver: core.HostID(i), Op: core.OpSum})
		for l := 1; l < leaves; l++ {
			j.Send(core.HostID(l*tenants+i), workload.Uniform(soakKeys, cfg.Tuples, cfg.Seed+seedOff(i, l)))
		}
		jobs = append(jobs, j)
	}
	return jobs
}

var kinds = [...]kind{
	Rack: {
		name:     "soak",
		defaults: Config{Events: 6, Senders: 2, Tuples: 30_000},
		build: func(cfg Config) (*ask.Deployment, error) {
			link := netsim.DefaultLinkConfig()
			link.Fault = cfg.Base
			cl, err := ask.NewCluster(ask.Options{Hosts: cfg.Senders + 1, Config: soakConfig(cfg), Link: link, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return &cl.Deployment, nil
		},
		jobs: func(cfg Config) []*ask.Job {
			j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
			for h := core.HostID(1); h <= core.HostID(cfg.Senders); h++ {
				j.Send(h, workload.Uniform(soakKeys, cfg.Tuples, cfg.Seed+int64(h)))
			}
			return []*ask.Job{j}
		},
		events:  []EventKind{EvSwitchOutage, EvLinkBlackhole, EvLinkDegrade, EvCorruptBurst, EvHostStall},
		startLo: 50, startSpan: 850, durLo: 50, durSpan: 200,
		// Only senders are targeted: the receiver's link must stay up for
		// the task to finish.
		host:       func(rng *rand.Rand, cfg Config) core.HostID { return core.HostID(1 + rng.Intn(cfg.Senders)) },
		invariants: []func(*replay) string{conservation, recovery, switchEpochs, transportSanity},
		note:       func(Report) string { return "" },
		flags:      func(cfg Config) string { return fmt.Sprintf(" -soak.senders=%d", cfg.Senders) },
	},
	FabricOutage: {
		name:     "fabric soak",
		defaults: Config{Events: 6, Spines: 2, Leaves: 3, Tuples: 20_000},
		build: func(cfg Config) (*ask.Deployment, error) {
			return fatTree(cfg, soakConfig(cfg), cfg.Spines, cfg.Leaves, fabricTenants)
		},
		jobs: func(cfg Config) []*ask.Job {
			return tenantJobs(cfg, cfg.Leaves, fabricTenants, func(i, l int) int64 { return int64(i*cfg.Leaves + l) })
		},
		events:  []EventKind{EvSpineOutage, EvLeafOutage, EvLinkBlackhole, EvCorruptBurst},
		startLo: 50, startSpan: 850, durLo: 50, durSpan: 200,
		// Senders are exactly the hosts of leaves 1 and up.
		host: func(rng *rand.Rand, cfg Config) core.HostID {
			return core.HostID(fabricTenants + rng.Intn((cfg.Leaves-1)*fabricTenants))
		},
		invariants: []func(*replay) string{conservation, recovery, fabricEpoch, transportSanity},
		note: func(r Report) string {
			return fmt.Sprintf(" (%d spines, %d leaves, %d tenants)", r.Cfg.Spines, r.Cfg.Leaves, fabricTenants)
		},
		flags: func(cfg Config) string {
			return fmt.Sprintf(" -topology fattree -soak.spines=%d -soak.leaves=%d", cfg.Spines, cfg.Leaves)
		},
	},
	TenantKill: {
		name:     "tenant soak",
		defaults: Config{Events: 3, Tuples: 20_000, Retries: 4},
		build: func(cfg Config) (*ask.Deployment, error) {
			c := core.DefaultConfig()
			c.MaxRetries = cfg.Retries
			return fatTree(cfg, c, 2, 2, killTenants)
		},
		jobs: func(cfg Config) []*ask.Job {
			return tenantJobs(cfg, 2, killTenants, func(i, _ int) int64 { return int64(i) })
		},
		// Black-hole windows only, long against the retry budget so
		// mid-stream holes genuinely kill the flow, all on the victim's
		// sender (its slot of leaf 1) — nothing but the window is drawn.
		events:  []EventKind{EvLinkBlackhole},
		startLo: 100, startSpan: 700, durLo: 100, durSpan: 200,
		host: func(_ *rand.Rand, cfg Config) core.HostID {
			return core.HostID(killTenants) + core.HostID(victim) - 1
		},
		invariants: []func(*replay) string{conservation, victimContained, isolation},
		note: func(r Report) string {
			verdict := "bridged the holes"
			if r.Outcome.VictimAborted {
				verdict = "aborted cleanly"
			}
			return fmt.Sprintf(" (%d tenants, victim %d %s)", killTenants, victim, verdict)
		},
		flags: func(Config) string { return "" },
	},
	MultiRackOutage: {
		name:     "multirack soak",
		defaults: Config{Events: 6, Leaves: 3, Tuples: 20_000},
		build: func(cfg Config) (*ask.Deployment, error) {
			link := netsim.DefaultLinkConfig()
			link.Fault = cfg.Base
			fc, err := ask.NewMultiRackCluster(ask.MultiRackOptions{
				Racks: cfg.Leaves, HostsPerRack: 2, Config: soakConfig(cfg), HostLink: link, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			return &fc.Deployment, nil
		},
		// Host 0 receives and the second host of every rack sends: its
		// rack-mate's tuples aggregate at the TOR, the rest cross the core and
		// merge at the host.
		jobs: func(cfg Config) []*ask.Job {
			j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
			for r := 0; r < cfg.Leaves; r++ {
				h := core.HostID(2*r + 1)
				j.Send(h, workload.Uniform(soakKeys, cfg.Tuples, cfg.Seed+int64(h)))
			}
			return []*ask.Job{j}
		},
		events:  []EventKind{EvLeafOutage, EvLinkBlackhole, EvLinkDegrade, EvCorruptBurst, EvHostStall},
		startLo: 50, startSpan: 850, durLo: 50, durSpan: 200,
		host:       func(rng *rand.Rand, cfg Config) core.HostID { return core.HostID(2*rng.Intn(cfg.Leaves) + 1) },
		invariants: []func(*replay) string{conservation, recovery, fabricEpoch, transportSanity},
		note:       func(r Report) string { return fmt.Sprintf(" (%d racks)", r.Cfg.Leaves) },
		flags:      func(cfg Config) string { return fmt.Sprintf(" -topology multirack -soak.leaves=%d", cfg.Leaves) },
	},
}

func (c Config) withDefaults() Config {
	d := kinds[c.Kind].defaults
	c.Events = or(c.Events, d.Events)
	c.Senders = or(c.Senders, d.Senders)
	c.Spines = or(c.Spines, d.Spines)
	c.Leaves = or(c.Leaves, d.Leaves)
	c.Tuples = or(c.Tuples, d.Tuples)
	c.Retries = or(c.Retries, d.Retries)
	return c
}

func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// EventKind enumerates the fault types a schedule can contain.
type EventKind int

const (
	EvSwitchOutage EventKind = iota
	EvLinkBlackhole
	EvLinkDegrade
	EvCorruptBurst
	EvHostStall
	// EvSpineOutage / EvLeafOutage crash-and-reboot one addressed fat-tree
	// switch (Event.Addr); a multi-rack TOR is a leaf. Only the FabricOutage
	// and MultiRackOutage tables draw them.
	EvSpineOutage
	EvLeafOutage
	// EvRevokeRegion reclaims Event.Task's aggregator rows at StartMil
	// (Event.Host is the task's receiver; there is no duration). No kinds
	// table draws it — only the scenario library scripts it.
	EvRevokeRegion
)

func (k EventKind) String() string {
	switch k {
	case EvSwitchOutage:
		return "switch-outage"
	case EvLinkBlackhole:
		return "link-blackhole"
	case EvLinkDegrade:
		return "link-degrade"
	case EvCorruptBurst:
		return "corrupt-burst"
	case EvHostStall:
		return "host-stall"
	case EvSpineOutage:
		return "spine-outage"
	case EvLeafOutage:
		return "leaf-outage"
	case EvRevokeRegion:
		return "revoke-region"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scheduled fault. Times are in thousandths of the timing
// scale (the fault-free task duration), so schedules are workload-size
// independent.
type Event struct {
	Kind     EventKind
	StartMil int64 // start, in 1/1000 of scale
	DurMil   int64 // duration, in 1/1000 of scale
	// Host is the target of link and stall faults (unused for switch
	// outages), and the receiver of the task an EvRevokeRegion targets.
	Host core.HostID
	// Task is the task whose region an EvRevokeRegion reclaims.
	Task core.TaskID
	// Addr is the fabric address of the switch an EvSpineOutage /
	// EvLeafOutage targets (unused for the rack's EvSwitchOutage, which
	// always hits ask.TheSwitch).
	Addr core.HostID
	// Fault is the override model for EvLinkDegrade / EvCorruptBurst.
	Fault netsim.Fault
}

func (e Event) String() string {
	s := fmt.Sprintf("%-14s t=[%4d,%4d)millis-of-scale", e.Kind, e.StartMil, e.StartMil+e.DurMil)
	switch e.Kind {
	case EvSwitchOutage:
		return s
	case EvSpineOutage, EvLeafOutage:
		return fmt.Sprintf("%s addr=%#x", s, uint16(e.Addr))
	case EvRevokeRegion:
		return fmt.Sprintf("%s task=%d receiver=%d", s, e.Task, e.Host)
	case EvLinkDegrade:
		return fmt.Sprintf("%s host=%d loss=%.3f dup=%.3f", s, e.Host, e.Fault.LossProb, e.Fault.DupProb)
	case EvCorruptBurst:
		return fmt.Sprintf("%s host=%d corrupt=%.4f truncate=%.4f", s, e.Host, e.Fault.CorruptProb, e.Fault.TruncateProb)
	default:
		return fmt.Sprintf("%s host=%d", s, e.Host)
	}
}

// Schedule is an ordered fault script.
type Schedule []Event

// Apply installs every event on the orchestrator, mapping the millis-of-
// scale timeline onto virtual time.
func (s Schedule) Apply(o *Orchestrator, scale time.Duration) {
	at := func(mil int64) time.Duration { return scale * time.Duration(mil) / 1000 }
	for _, ev := range s {
		start, dur := at(ev.StartMil), at(ev.DurMil)
		switch ev.Kind {
		case EvSwitchOutage:
			o.SwitchOutage(ask.TheSwitch, start, dur)
		case EvSpineOutage, EvLeafOutage:
			o.SwitchOutage(ev.Addr, start, dur)
		case EvLinkBlackhole:
			o.LinkBlackhole(start, dur, ev.Host)
		case EvLinkDegrade, EvCorruptBurst:
			o.LinkDegrade(start, dur, ev.Host, ev.Fault)
		case EvHostStall:
			o.HostStall(start, dur, ev.Host)
		case EvRevokeRegion:
			o.RevokeRegion(start, ev.Task, ev.Host)
		}
	}
}

func (s Schedule) String() string {
	if len(s) == 0 {
		return "  (empty schedule — base config alone fails)"
	}
	var b strings.Builder
	for i, ev := range s {
		fmt.Fprintf(&b, "  [%d] %s\n", i, ev)
	}
	return strings.TrimRight(b.String(), "\n")
}

// overlapsAny reports whether [start, end) intersects any interval in
// ivs, with a separation gap so healing completes before the next fault.
func overlapsAny(ivs [][2]int64, start, end int64) bool {
	const gap = 50
	for _, iv := range ivs {
		if start < iv[1]+gap && iv[0] < end+gap {
			return true
		}
	}
	return false
}

// GenerateSchedule draws a fault script from cfg.Seed off the kind's event
// table. Constraints keep every draw runnable: switch outages never overlap
// each other — so the fabric always has a heal window between incarnation
// bumps — per-host faults never overlap on the same host, and only sender
// hosts are targeted. Every window ends by 1150 millis of scale, so every
// fault heals within the script.
func GenerateSchedule(cfg Config) Schedule {
	cfg = cfg.withDefaults()
	k := &kinds[cfg.Kind]
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sched Schedule
	// busy holds the taken windows per target: one entry per host, and
	// switchTier for the switches, whose outages exclude each other
	// fabric-wide.
	const switchTier = -1
	busy := make(map[int][][2]int64)
	for attempts := 0; len(sched) < cfg.Events && attempts < cfg.Events*64; attempts++ {
		ev := Event{Kind: k.events[0]}
		if len(k.events) > 1 {
			ev.Kind = k.events[rng.Intn(len(k.events))]
		}
		ev.StartMil = k.startLo + rng.Int63n(k.startSpan)
		ev.DurMil = k.durLo + rng.Int63n(k.durSpan)
		target := switchTier
		switch ev.Kind {
		case EvSwitchOutage:
		case EvSpineOutage:
			ev.Addr = netsim.SpineAddr(rng.Intn(cfg.Spines))
		case EvLeafOutage:
			ev.Addr = netsim.LeafAddr(rng.Intn(cfg.Leaves))
		default:
			ev.Host = k.host(rng, cfg)
			target = int(ev.Host)
		}
		if overlapsAny(busy[target], ev.StartMil, ev.StartMil+ev.DurMil) {
			continue
		}
		busy[target] = append(busy[target], [2]int64{ev.StartMil, ev.StartMil + ev.DurMil})
		switch ev.Kind {
		case EvLinkDegrade:
			ev.Fault = netsim.Fault{
				LossProb: 0.05 + rng.Float64()*0.20,
				DupProb:  rng.Float64() * 0.05,
			}
		case EvCorruptBurst:
			ev.Fault = netsim.Fault{
				CorruptProb:  0.002 + rng.Float64()*0.02,
				TruncateProb: rng.Float64() * 0.004,
			}
		}
		sched = append(sched, ev)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].StartMil < sched[j].StartMil })
	return sched
}

// Outcome is the verdict of one schedule replay.
type Outcome struct {
	// Violation is empty on a clean run, else a one-line description of
	// the first invariant that failed.
	Violation string
	// Elapsed is the slowest completed task's virtual duration.
	Elapsed time.Duration
	// Evidence counters: quarantined frames prove the integrity path was
	// exercised; retransmits and replays prove the reliability path was.
	SwitchCorruptDropped int64
	HostCorruptDropped   int64
	Retransmits          int64
	Replays              int64
	// VictimAborted reports whether the TenantKill victim's stream hit the
	// bounded retry budget (false when the holes were short enough to
	// bridge).
	VictimAborted bool
}

// OK reports whether every invariant held.
func (o Outcome) OK() bool { return o.Violation == "" }

// replay is one finished run as the invariants see it.
type replay struct {
	cfg   Config
	fab   *ask.Deployment
	sched Schedule
	jobs  []*ask.Job
	// errs[i] != nil means job i never completed; diffs[i] != "" that it
	// completed with an aggregate other than its ground truth.
	errs  []error
	diffs []string
	// capped is set when the run was cut off at the virtual-time cap.
	capped bool
}

func (r *replay) victim(j *ask.Job) bool {
	return r.cfg.Kind == TenantKill && j.Spec.ID.Tenant() == victim
}

// aborts sums transport aborts over the channels of the given hosts.
func (r *replay) aborts(hosts ...core.HostID) int64 {
	var n int64
	for _, h := range hosts {
		for _, cs := range r.fab.Daemon(h).ChannelStats() {
			n += cs.Aborts
		}
	}
	return n
}

// incomplete words the violation for a task that never finished.
func (r *replay) incomplete(j *ask.Job, err error) string {
	if r.capped {
		// A broken datapath can livelock (e.g. forged sequence state
		// retransmitting forever); the cap turns that into a verdict.
		return fmt.Sprintf("%s still running at the virtual-time cap (livelock)", j.Label())
	}
	// The cluster quiesced with the receiver still waiting.
	return fmt.Sprintf("%s did not complete: %v", j.Label(), err)
}

// conservation: every task outside the victim's aggregates to exactly its
// host-computed ground truth. Every tuple counted once, none lost to faults
// or outages, none double-counted by retransmission or replay across a
// reboot, spine re-election or leaf heal, none fabricated from corrupted
// bytes.
func conservation(r *replay) string {
	for i, j := range r.jobs {
		switch {
		case r.victim(j):
		case r.errs[i] != nil:
			return r.incomplete(j, r.errs[i])
		case r.diffs[i] != "":
			return j.Label() + " conservation violated: " + r.diffs[i]
		}
	}
	return ""
}

// recovery: every fault healed, so no host may still be degraded once the
// deployment quiesces.
func recovery(r *replay) string {
	for _, h := range r.fab.Hosts() {
		if r.fab.Daemon(h).Degraded() {
			return fmt.Sprintf("host %d still degraded at quiescence", h)
		}
	}
	return ""
}

// hostsBehind checks that no host believes in an incarnation past epoch.
func hostsBehind(r *replay, epoch uint32) string {
	for _, h := range r.fab.Hosts() {
		if he := r.fab.Daemon(h).Epoch(); he > epoch {
			return fmt.Sprintf("host %d epoch %d ahead of switch epoch %d", h, he, epoch)
		}
	}
	return ""
}

// switchEpochs is epoch coherence under per-switch incarnations (the rack):
// a switch's epoch advances once per reboot, and no host is ahead of it.
func switchEpochs(r *replay) string {
	var newest uint32
	for i, sw := range r.fab.Switches() {
		if got, want := int64(sw.Epoch()), 1+sw.Stats().Reboots; got != want {
			return fmt.Sprintf("switch %d epoch %d != 1+reboots %d", i, got, want)
		}
		if sw.Epoch() > newest {
			newest = sw.Epoch()
		}
	}
	return hostsBehind(r, newest)
}

// fabricEpoch is epoch coherence under the fat-tree's shared epoch: each
// switch outage bumps it twice (crash and reboot), every switch converges on
// the final incarnation, and no host is ahead of it.
func fabricEpoch(r *replay) string {
	outages := 0
	for _, ev := range r.sched {
		if ev.Kind == EvSpineOutage || ev.Kind == EvLeafOutage {
			outages++
		}
	}
	want := uint32(1 + 2*outages)
	if fe := r.fab.FabricEpoch(); fe != want {
		return fmt.Sprintf("fabric epoch %d != 1+2x%d outages = %d", fe, outages, want)
	}
	for i, sw := range r.fab.Switches() {
		if got := sw.Epoch(); got != want {
			return fmt.Sprintf("switch %d epoch %d != fabric epoch %d", i, got, want)
		}
	}
	return hostsBehind(r, want)
}

// transportSanity: with an unbounded retry budget no flight may abort, and
// no channel may ACK more than it sent.
func transportSanity(r *replay) string {
	for _, h := range r.fab.Hosts() {
		for ch, cs := range r.fab.Daemon(h).ChannelStats() {
			if cs.Aborts != 0 {
				return fmt.Sprintf("host %d channel %d aborted %d flights under unbounded retries", h, ch, cs.Aborts)
			}
			if cs.Acked > cs.Sent {
				return fmt.Sprintf("host %d channel %d acked %d > sent %d", h, ch, cs.Acked, cs.Sent)
			}
		}
	}
	return ""
}

// victimContained: the black-holed tenant either bridges the holes — and
// must then still be exact, a partial result would be silent data loss — or
// aborts on its bounded retry budget; it never just stops.
func victimContained(r *replay) string {
	for i, j := range r.jobs {
		switch {
		case !r.victim(j):
		case r.errs[i] == nil:
			if r.diffs[i] != "" {
				return fmt.Sprintf("victim %s completed with a wrong result: %s", j.Label(), r.diffs[i])
			}
		case r.aborts(j.Spec.Senders...) == 0:
			return "victim " + r.incomplete(j, r.errs[i]) + " without a transport abort"
		}
	}
	return ""
}

// isolation: no tenant but the victim sees a transport abort on its hosts.
func isolation(r *replay) string {
	for _, j := range r.jobs {
		if n := r.aborts(append(j.Spec.Senders, j.Spec.Receiver)...); n != 0 && !r.victim(j) {
			return fmt.Sprintf("%s (not the victim) saw %d transport aborts", j.Label(), n)
		}
	}
	return ""
}

// Run replays one schedule on a fresh deployment and checks the kind's
// invariants. It is deterministic: equal (cfg, sched, scale) triples produce
// equal Outcomes. A zero scale runs uncapped (GoldenScale's fault-free run).
func Run(cfg Config, sched Schedule, scale time.Duration) Outcome {
	cfg = cfg.withDefaults()
	k := &kinds[cfg.Kind]
	fab, err := k.build(cfg)
	if err != nil {
		return Outcome{Violation: fmt.Sprintf("deployment build failed: %v", err)}
	}
	// The shrinker replays dozens of fabrics; a finished one must not stay
	// pinned by its parked processes.
	defer fab.Sim.Close()
	r := &replay{cfg: cfg, fab: fab, sched: sched, jobs: k.jobs(cfg)}
	sched.Apply(New(fab), scale)
	if err := fab.Start(r.jobs...); err != nil {
		return Outcome{Violation: fmt.Sprintf("submission failed: %v", err)}
	}
	// Run under a virtual-time cap: every fault heals by 1.15x scale, so 25x
	// is far beyond any legitimate recovery tail.
	deadline := sim.Time(0).Add(25 * scale)
	r.capped = fab.Sim.Run(deadline) >= deadline && scale > 0

	var out Outcome
	r.errs, r.diffs = make([]error, len(r.jobs)), make([]string, len(r.jobs))
	for i, j := range r.jobs {
		res, err := j.Result()
		var wrong *core.MismatchError
		switch {
		case errors.As(err, &wrong):
			r.diffs[i] = wrong.Diff
		case err != nil:
			r.errs[i] = err
			out.VictimAborted = out.VictimAborted || r.victim(j) && r.aborts(j.Spec.Senders...) > 0
			continue
		}
		if d := time.Duration(res.Elapsed); d > out.Elapsed {
			out.Elapsed = d
		}
	}
	for _, sw := range fab.Switches() {
		out.SwitchCorruptDropped += sw.Stats().CorruptDropped
	}
	for _, h := range fab.Hosts() {
		d := fab.Daemon(h)
		out.HostCorruptDropped += d.Stats().CorruptDropped
		out.Replays += d.FailoverStats().ReplaysSent
		for _, cs := range d.ChannelStats() {
			out.Retransmits += cs.Retransmits
		}
	}
	for _, inv := range k.invariants {
		if out.Violation = inv(r); out.Violation != "" {
			break
		}
	}
	return out
}

// GoldenScale runs the kind's workload once on a fault-free,
// verification-enabled deployment and returns the slowest task's duration —
// the timing scale schedules are expressed in. It returns an error if even
// the clean run violates an invariant (the build is broken beyond what
// fault injection can reveal).
func GoldenScale(cfg Config) (time.Duration, error) {
	cfg.Base = netsim.Fault{}
	cfg.DisableChecksumVerify = false
	out := Run(cfg, nil, 0)
	if !out.OK() {
		return 0, fmt.Errorf("chaos: golden run failed: %s", out.Violation)
	}
	return out.Elapsed, nil
}

// ShrinkWith minimizes a failing schedule against an arbitrary replay
// predicate (the rack soak and the tenant soak share it): first the empty
// schedule (the base config alone may fail), then the shortest failing
// prefix, then repeated single-event elision until every remaining event is
// load-bearing. It returns the minimal schedule and the number of replays
// spent. fails must be deterministic for the minimization to mean anything.
func ShrinkWith(fails func(Schedule) bool, sched Schedule) (Schedule, int) {
	runs := 0
	check := func(s Schedule) bool {
		runs++
		return fails(s)
	}
	if check(nil) {
		return Schedule{}, runs
	}
	cur := sched
	for k := 1; k < len(sched); k++ {
		if check(sched[:k]) {
			cur = sched[:k]
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append(Schedule{}, cur[:i]...), cur[i+1:]...)
			if check(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur, runs
}

// Report is the full record of one soak: config, scale, the drawn
// schedule, its outcome, and — on failure — the shrunken schedule and a
// reproducer line.
type Report struct {
	Cfg      Config
	Scale    time.Duration
	Schedule Schedule
	Outcome  Outcome
	// Shrunk is the minimal failing schedule (nil when the soak passed;
	// possibly empty when the base config alone fails).
	Shrunk Schedule
	// Runs is the total number of schedule replays, shrinking included.
	Runs int
}

// Passed reports whether every invariant held on the full schedule.
func (r Report) Passed() bool { return r.Outcome.OK() }

// Reproducer is the one-line command that replays this exact soak, topology
// flags included — a reproducer that omitted them would replay a rack soak
// and "pass". It is empty for kinds asksim cannot run (TenantKill).
func (r Report) Reproducer() string {
	flags := kinds[r.Cfg.Kind].flags(r.Cfg)
	if flags == "" {
		return ""
	}
	s := fmt.Sprintf("asksim -soak -soak.seed=%d -soak.events=%d -soak.tuples=%d%s",
		r.Cfg.Seed, r.Cfg.Events, r.Cfg.Tuples, flags)
	if r.Cfg.Base.CorruptProb != 0 {
		s += fmt.Sprintf(" -soak.corrupt=%g", r.Cfg.Base.CorruptProb)
	}
	if r.Cfg.DisableChecksumVerify {
		s += " -soak.break-checksums"
	}
	return s
}

func (r Report) String() string {
	k := &kinds[r.Cfg.Kind]
	var b strings.Builder
	if r.Passed() {
		fmt.Fprintf(&b, "%s seed=%d PASS: %d events over %v%s, elapsed %v\n",
			k.name, r.Cfg.Seed, len(r.Schedule), r.Scale, k.note(r), r.Outcome.Elapsed)
		fmt.Fprintf(&b, "  evidence: corrupt_dropped switch=%d host=%d, retransmits=%d, replays=%d\n",
			r.Outcome.SwitchCorruptDropped, r.Outcome.HostCorruptDropped,
			r.Outcome.Retransmits, r.Outcome.Replays)
		return b.String()
	}
	fmt.Fprintf(&b, "%s seed=%d FAIL: %s\n", k.name, r.Cfg.Seed, r.Outcome.Violation)
	fmt.Fprintf(&b, "minimal failing schedule (%d of %d events, %d replays):\n",
		len(r.Shrunk), len(r.Schedule), r.Runs)
	fmt.Fprintf(&b, "%s\n", r.Shrunk)
	if line := r.Reproducer(); line != "" {
		fmt.Fprintf(&b, "reproduce with: %s\n", line)
	}
	return b.String()
}

// Soak runs one full soak for cfg: golden timing run, schedule generation,
// replay, and — on violation — shrinking. The only error return is a
// golden-run failure; fault-induced violations are reported in the Report,
// reproducer included.
func Soak(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	scale, err := GoldenScale(cfg)
	if err != nil {
		return Report{}, err
	}
	sched := GenerateSchedule(cfg)
	rep := Report{Cfg: cfg, Scale: scale, Schedule: sched, Runs: 1}
	rep.Outcome = Run(cfg, sched, scale)
	if !rep.Outcome.OK() {
		shrunk, runs := ShrinkWith(func(s Schedule) bool { return !Run(cfg, s, scale).OK() }, sched)
		rep.Shrunk = shrunk
		rep.Runs += runs
	}
	return rep, nil
}
