// Package mapreduce is a miniature Spark-like engine used to reproduce the
// big-data experiments (§5.5): jobs with per-machine map tasks and reduce
// tasks, a hash-partitioned shuffle, and four interchangeable shuffle
// strategies —
//
//   - Vanilla: mappers pre-aggregate (sort-merge), spill the intermediate
//     result through disk, and ship it over TCP-like transport;
//   - SHM: like Vanilla but the intermediate data stays in shared memory
//     (no disk I/O) and moves via the ASK transport (SparkSHM, §5.1);
//   - RDMA: like Vanilla but network I/O costs no per-packet CPU
//     (SparkRDMA);
//   - ASK: mappers do not pre-aggregate at all — raw tuples stream through
//     the ASK daemons and the switch aggregates in-network.
//
// Each reduce task owns a disjoint key partition: partition(key) = reducer,
// so per-reducer results concatenate into the job result.
package mapreduce

import (
	"fmt"
	"slices"
	"time"

	"repro/ask"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/workload"
)

// Transport selects the shuffle strategy.
type Transport uint8

const (
	Vanilla Transport = iota
	SHM
	RDMA
	ASK
)

func (t Transport) String() string {
	switch t {
	case Vanilla:
		return "Spark"
	case SHM:
		return "SparkSHM"
	case RDMA:
		return "SparkRDMA"
	case ASK:
		return "ASK"
	default:
		return "invalid"
	}
}

// MapTupleCost is the per-tuple cost of the map function itself (input
// scan, tokenization, emit) — paid by every variant. Calibration: Fig. 11
// reports ASK mappers (map-only, no pre-aggregation) at a mean TCT of
// 1.67 s for 10⁸ tuples → ≈16.7 ns/tuple.
const MapTupleCost = 17 * time.Nanosecond

// DiskBandwidth models the shuffle spill path of vanilla Spark (write +
// read of the intermediate data on a spinning-disk array).
const DiskBandwidth = 500e6 // bytes/s

// Config describes one job.
type Config struct {
	Machines           int
	MappersPerMachine  int
	ReducersPerMachine int
	// TuplesPerMapper is each map task's input size.
	TuplesPerMapper int64
	// DistinctKeys is the vocabulary size shared by all mappers (Fig. 10:
	// 2¹⁸ distinct keys per mapper).
	DistinctKeys int
	Transport    Transport
	Seed         int64
	// Workload overrides the default uniform WordCount input; it must be a
	// fresh spec per (machine, mapper).
	Workload func(machine, mapper int) workload.Spec
}

// Report is the outcome of a job.
type Report struct {
	JCT time.Duration
	// MapperTCT / ReducerTCT are per-task completion times.
	MapperTCT  []time.Duration
	ReducerTCT []time.Duration
	// Result is the full job output (all partitions merged).
	Result core.Result
	// CPUBusy is total core-busy time across machines.
	CPUBusy time.Duration
}

// MeanMapperTCT returns the average map-task completion time.
func (r Report) MeanMapperTCT() time.Duration { return meanDur(r.MapperTCT) }

// MeanReducerTCT returns the average reduce-task completion time.
func (r Report) MeanReducerTCT() time.Duration { return meanDur(r.ReducerTCT) }

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func (c *Config) defaults() {
	if c.Workload == nil {
		c.Workload = func(machine, mapper int) workload.Spec {
			return workload.Uniform(c.DistinctKeys, c.TuplesPerMapper,
				c.Seed+int64(machine*1000+mapper))
		}
	}
}

// reducers returns the total reduce-task count.
func (c *Config) reducers() int { return c.Machines * c.ReducersPerMachine }

// partition assigns a key to a reduce task.
func partition(key string, reducers int) int {
	return int(keyspace.HashOrder(key) % uint64(reducers))
}

// filtered returns a stream of spec's tuples belonging to one reducer.
func filtered(spec workload.Spec, reducer, reducers int) core.Stream {
	s := spec.Stream()
	return func() (core.KV, bool) {
		for {
			kv, ok := s()
			if !ok {
				return core.KV{}, false
			}
			if partition(kv.Key, reducers) == reducer {
				return kv, true
			}
		}
	}
}

// concat chains streams sequentially.
func concat(streams ...core.Stream) core.Stream {
	i := 0
	return func() (core.KV, bool) {
		for i < len(streams) {
			kv, ok := streams[i]()
			if ok {
				return kv, true
			}
			i++
		}
		return core.KV{}, false
	}
}

// reducerShare is the map output one machine ships to one reducer: its
// mappers' tuples that partition to the reducer, in mapper order. Each Stream
// call re-creates it from the workload specs.
type reducerShare struct {
	cfg              *Config
	machine, reducer int
}

func (s reducerShare) Stream() core.Stream {
	parts := make([]core.Stream, s.cfg.MappersPerMachine)
	for t := range parts {
		parts[t] = filtered(s.cfg.Workload(s.machine, t), s.reducer, s.cfg.reducers())
	}
	return concat(parts...)
}

// Run executes the job under the configured transport.
func Run(cfg Config) (Report, error) {
	cfg.defaults()
	if cfg.Machines <= 0 || cfg.MappersPerMachine <= 0 || cfg.ReducersPerMachine <= 0 {
		return Report{}, fmt.Errorf("mapreduce: invalid shape %+v", cfg)
	}
	if cfg.Transport == ASK {
		return runASK(cfg)
	}
	return runHostShuffle(cfg)
}

// runASK streams raw map output through the ASK service: one aggregation
// task per reduce task, senders are the machines, no mapper pre-aggregation.
func runASK(cfg Config) (Report, error) {
	swOpts := switchd.DefaultOptions()
	if need := cfg.reducers() + 8; swOpts.MaxRegions < need {
		swOpts.MaxRegions = need
	}
	askCfg := core.DefaultConfig()
	cl, err := ask.NewCluster(ask.Options{
		Hosts:  cfg.Machines,
		Seed:   cfg.Seed,
		Config: askCfg,
		Switch: swOpts,
	})
	if err != nil {
		return Report{}, err
	}
	defer cl.Sim.Close() // a finished cluster must not stay pinned by its parked daemons
	R := cfg.reducers()
	rows := (askCfg.AARows / R) &^ 1
	if rows == 0 {
		rows = 2
	}

	var rep Report

	// Map tasks: pure map CPU (the daemon's channel threads carry the IO).
	mapDone := make([]sim.Time, cfg.Machines*cfg.MappersPerMachine)
	for m := 0; m < cfg.Machines; m++ {
		for t := 0; t < cfg.MappersPerMachine; t++ {
			idx := m*cfg.MappersPerMachine + t
			cpu := cl.CPU(core.HostID(m))
			cl.Sim.Spawn(fmt.Sprintf("map-%d-%d", m, t), func(p *sim.Proc) {
				cpu.Exec(p, time.Duration(cfg.TuplesPerMapper)*(MapTupleCost+cpumodel.ShmCopyCost))
				mapDone[idx] = p.Now()
			})
		}
	}

	// Reduce tasks: one ASK aggregation task per reducer, each verified
	// against the keyed reduce of its own input.
	jobs := make([]*ask.Job, R)
	for r := range jobs {
		jobs[r] = ask.NewJob(core.TaskSpec{
			ID:       core.TaskID(r + 1),
			Receiver: core.HostID(r / cfg.ReducersPerMachine),
			Op:       core.OpSum,
			Rows:     rows,
		})
		for m := 0; m < cfg.Machines; m++ {
			jobs[r].Send(core.HostID(m), reducerShare{cfg: &cfg, machine: m, reducer: r})
		}
	}
	if err := cl.Start(jobs...); err != nil {
		return Report{}, err
	}

	end := cl.Sim.Run(0)
	rep.JCT = time.Duration(end)
	rep.Result = make(core.Result)
	for _, j := range jobs {
		res, err := j.Result()
		if err != nil {
			return Report{}, err
		}
		rep.ReducerTCT = append(rep.ReducerTCT, time.Duration(res.Elapsed))
		rep.Result.Merge(res.Result, core.OpSum)
	}
	for _, at := range mapDone {
		rep.MapperTCT = append(rep.MapperTCT, time.Duration(at))
	}
	for m := 0; m < cfg.Machines; m++ {
		rep.CPUBusy += cl.CPU(core.HostID(m)).BusyTime()
	}
	return rep, nil
}

// runHostShuffle executes the Vanilla/SHM/RDMA variants: mappers
// pre-aggregate, spill (Vanilla/RDMA), and ship per-reducer partials.
func runHostShuffle(cfg Config) (Report, error) {
	s, n := baselines.NewRack(cfg.Seed, netsim.DefaultLinkConfig())

	R := cfg.reducers()
	cpus := make([]*cpumodel.Host, cfg.Machines)
	disks := make([]*sim.Resource, cfg.Machines)
	recvs := make([]*baselines.Merger, cfg.Machines)
	// Every reducer merges one partial from each mapper.
	expected := slices.Repeat([]int{cfg.Machines * cfg.MappersPerMachine}, cfg.ReducersPerMachine)
	for m := 0; m < cfg.Machines; m++ {
		cpus[m] = cpumodel.NewHost(s, cpumodel.DefaultCores)
		disks[m] = sim.NewResource(s, 1)
		recvs[m] = baselines.NewMerger(s, cpus[m], core.OpSum, expected...)
		n.AttachHost(core.HostID(m), recvs[m])
	}

	mapDone := make([]sim.Time, cfg.Machines*cfg.MappersPerMachine)
	for m := 0; m < cfg.Machines; m++ {
		for t := 0; t < cfg.MappersPerMachine; t++ {
			m, t := m, t
			idx := m*cfg.MappersPerMachine + t
			spec := cfg.Workload(m, t)
			s.Spawn(fmt.Sprintf("map-%d-%d", m, t), func(p *sim.Proc) {
				// Map + pre-aggregation (sort-merge) on one core.
				cpus[m].Exec(p, time.Duration(cfg.TuplesPerMapper)*(MapTupleCost+cpumodel.HostAggregateCost))
				partial := core.ReferenceStreams(core.OpSum, spec.Stream())
				// Partition the partial by reducer.
				parts := make([]core.Result, R)
				for k, v := range partial {
					r := partition(k, R)
					if parts[r] == nil {
						parts[r] = make(core.Result)
					}
					parts[r][k] = v
				}
				bytes := partial.WireBytes()
				// Vanilla and RDMA spill the intermediate data to disk
				// (write + read); SHM keeps it in shared memory.
				if cfg.Transport == Vanilla || cfg.Transport == RDMA {
					disks[m].Use(p, time.Duration(float64(2*bytes)/DiskBandwidth*float64(time.Second)))
				}
				mapDone[idx] = p.Now()
				// Ship each reducer's slice. RDMA is zero-copy: no
				// per-packet CPU, so no thread.
				var thread *cpumodel.Thread
				if cfg.Transport != RDMA {
					thread = cpus[m].NewThread()
				}
				for r, pr := range parts {
					dst := core.HostID(r / cfg.ReducersPerMachine)
					final := baselines.Partial{Reducer: r % cfg.ReducersPerMachine, Data: pr}
					baselines.ShipResult(p, n, thread, core.HostID(m), dst, pr.WireBytes(), final)
				}
			})
		}
	}

	end := s.Run(0)
	rep := Report{JCT: time.Duration(end), Result: make(core.Result)}
	for _, at := range mapDone {
		rep.MapperTCT = append(rep.MapperTCT, time.Duration(at))
	}
	for _, rx := range recvs {
		for r := 0; r < cfg.ReducersPerMachine; r++ {
			rep.Result.Merge(rx.Results[r], core.OpSum)
			rep.ReducerTCT = append(rep.ReducerTCT, time.Duration(rx.DoneAt[r]))
		}
	}
	for _, c := range cpus {
		rep.CPUBusy += c.BusyTime()
	}
	return rep, nil
}
