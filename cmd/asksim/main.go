// Command asksim runs one ASK aggregation task on a simulated cluster built
// from flags and dumps the full metric set — a scriptable way to poke the
// system.
//
// Example:
//
//	asksim -hosts 4 -senders 3 -tuples 1000000 -distinct 8192 \
//	       -skew 1.1 -loss 0.01 -channels 4 -swap 4096
//
//	askgen -scenario flash-crowd -out flash.askt
//	asksim -replay flash.askt          # timed replay on the sim clock
//	askgen -dataset yelp -out yelp.askt
//	asksim -replay yelp.askt           # zero offsets: the same path, back to back
//
// Every -topology (rack, multirack, fattree) runs the same path: build the
// deployment, lay out one ask.Job per tenant (or a single one), start, run,
// verify against the host-computed reference, report. A flag the chosen
// topology or workload source cannot honour is rejected, never ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asksim: "+format+"\n", args...)
	os.Exit(1)
}

// rejectFlags fails on the first explicitly set flag that table lists: a
// silently ignored flag would make the command line lie about what ran.
func rejectFlags(table map[string]string, context string) {
	flag.Visit(func(f *flag.Flag) {
		if why, bad := table[f.Name]; bad {
			fail("-%s does not apply to %s: %s", f.Name, context, why)
		}
	})
}

// writeJSON writes the JSON telemetry snapshot to path ("-" = stdout).
func writeJSON(path string, tel *telemetry.Set) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := tel.WriteJSON(out); err != nil {
		fail("%v", err)
	}
}

// shape is what the flags ask for, topology-independent: groups of hosts
// (the rack is one group; -leaves racks or leaves otherwise), the ASK
// configuration and the fault model of every link.
type shape struct {
	groups, hosts, spines, tenants int
	seed                           int64
	cfg                            core.Config
	link                           netsim.LinkConfig
	tel                            bool
}

// topology is one -topology table entry.
type topology struct {
	// rejects names the flags this topology cannot honour, with the reason.
	rejects map[string]string
	build   func(shape) (*ask.Deployment, *tenancy.Manager, error)
	// header describes the fabric above the report (nil prints nothing).
	header func(shape) string
	// switchName labels entry i of Switches() in the per-switch lines.
	switchName func(s shape, i int) string
}

var topologies = map[string]topology{
	"rack": {
		rejects: map[string]string{
			"spines": "a rack has one switch", "leaves": "a rack is a single group of -hosts",
			"tenants": "tenancy runs on the fat-tree",
		},
		build: func(s shape) (*ask.Deployment, *tenancy.Manager, error) {
			cl, err := ask.NewCluster(ask.Options{Hosts: s.hosts, Config: s.cfg, Link: s.link, Seed: s.seed, Telemetry: s.tel})
			if err != nil {
				return nil, nil, err
			}
			return &cl.Deployment, nil, nil
		},
	},
	"multirack": {
		rejects: map[string]string{
			"spines": "the racks join at one forwarding core", "tenants": "tenancy runs on the fat-tree",
			"telemetry": "the multi-rack deployment has no cluster telemetry set", "json": "the multi-rack deployment has no cluster telemetry set",
		},
		build: func(s shape) (*ask.Deployment, *tenancy.Manager, error) {
			fc, err := ask.NewMultiRackCluster(ask.MultiRackOptions{
				Racks: s.groups, HostsPerRack: s.hosts, Config: s.cfg,
				HostLink: s.link, CoreLink: s.link, Seed: s.seed,
			})
			if err != nil {
				return nil, nil, err
			}
			return &fc.Deployment, nil, nil
		},
		header:     func(s shape) string { return fmt.Sprintf("multi-rack: %d racks × %d hosts/rack", s.groups, s.hosts) },
		switchName: func(_ shape, i int) string { return fmt.Sprintf("TOR %d:", i) },
	},
	"fattree": {
		build: func(s shape) (*ask.Deployment, *tenancy.Manager, error) {
			opts := ask.FatTreeOptions{
				Spines: s.spines, Leaves: s.groups, HostsPerLeaf: s.hosts, Config: s.cfg,
				HostLink: s.link, FabricLink: s.link, Seed: s.seed, Telemetry: s.tel,
			}
			for i := 0; i < s.tenants; i++ {
				opts.Tenants = append(opts.Tenants, tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: 1})
			}
			fc, err := ask.NewFatTreeCluster(opts)
			if err != nil {
				return nil, nil, err
			}
			return &fc.Deployment, fc.Tenancy, nil
		},
		header: func(s shape) string {
			h := fmt.Sprintf("fat-tree: %d spines × %d leaves × %d hosts/leaf", s.spines, s.groups, s.hosts)
			if s.tenants > 0 {
				h += fmt.Sprintf(", %d tenants (equal weights)", s.tenants)
			}
			return h
		},
		switchName: func(s shape, i int) string {
			if i < s.groups {
				return fmt.Sprintf("leaf %d:", i)
			}
			return fmt.Sprintf("spine %d:", i-s.groups)
		},
	},
}

// sender is one stream slot of the layout: seedOff separates the generated
// workloads exactly as each topology always has.
type sender struct {
	job     *ask.Job
	host    core.HostID
	seedOff int64
}

// layout lays out one job per tenant (or a single one) and its sender slots:
// with tenants, tenant i's receiver sits in slot i of group 0 and a sender in
// slot i of every other group; on a single group the -senders hosts after the
// receiver send.
func layout(s shape, senders, rows int) ([]*ask.Job, []sender) {
	var jobs []*ask.Job
	var slots []sender
	for i := 0; i < max(s.tenants, 1); i++ {
		j := ask.NewJob(core.TaskSpec{ID: core.TaskID(i + 1), Receiver: core.HostID(i), Op: core.OpSum, Rows: rows})
		if s.tenants > 0 {
			j.Spec.ID = core.MakeTaskID(core.TenantID(i+1), uint32(i+1))
		}
		if s.groups == 1 {
			for h := i + 1; h <= i+senders; h++ {
				slots = append(slots, sender{j, core.HostID(h), int64(h)})
			}
		} else {
			for g := 1; g < s.groups; g++ {
				slots = append(slots, sender{j, core.HostID(g*s.hosts + i), int64(i*s.groups + g)})
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, slots
}

func main() {
	var (
		hosts    = flag.Int("hosts", 4, "servers per group: in the rack, or per rack / per leaf (receiver is host 0)")
		senders  = flag.Int("senders", 3, "sending hosts after the receiver on a single-group run (grouped fabrics send from one host per other group)")
		tuples   = flag.Int64("tuples", 500_000, "tuples per sender")
		distinct = flag.Int("distinct", 8192, "distinct keys per sender")
		skew     = flag.Float64("skew", 0, "Zipf exponent (0 = uniform)")
		loss     = flag.Float64("loss", 0, "per-link loss probability")
		dup      = flag.Float64("dup", 0, "per-link duplication probability")
		channels = flag.Int("channels", 4, "data channels per daemon")
		swap     = flag.Int("swap", 4096, "shadow-copy swap threshold (0 = off)")
		rows     = flag.Int("rows", 0, "switch region rows (0 = default)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		verify   = flag.Bool("verify", true, "check the result against a host-computed reference")
		replay   = flag.String("replay", "", "replay a trace from askgen instead of generating, dealt round-robin across the senders: every tuple enters at its recorded arrival offset on the sim clock (a trace of zero offsets runs back to back)")
		layoutF  = flag.Bool("layout", false, "print the switch pipeline layout and exit")
		telem    = flag.Bool("telemetry", false, "enable the cluster telemetry stack and print the metric report")
		jsonOut  = flag.String("json", "", "write a JSON telemetry snapshot (metrics, series, trace events) to this file ('-' = stdout; implies -telemetry)")

		topoName = flag.String("topology", "rack", "deployment: rack (single switch), multirack (TORs under a forwarding core) or fattree (spine/leaf fabric)")
		spines   = flag.Int("spines", 2, "fat-tree spine switches (topology=fattree)")
		leaves   = flag.Int("leaves", 3, "host groups: fat-tree leaves or multirack racks, of -hosts each")
		tenants  = flag.Int("tenants", 0, "tenants sharing the fat-tree, one task each, equal weights (0 = untenanted; topology=fattree)")

		soak        = flag.Bool("soak", false, "run the chaos soak harness instead of a single task (honors -topology)")
		soakRuns    = flag.Int("soak.runs", 1, "consecutive soak seeds to run (soak.seed, soak.seed+1, ...)")
		soakSeed    = flag.Int64("soak.seed", 1, "soak seed (drives workload, schedule, and fault RNG)")
		soakEvents  = flag.Int("soak.events", 6, "fault events per soak schedule")
		soakSenders = flag.Int("soak.senders", 2, "sending hosts in the soak cluster (topology=rack)")
		soakTuples  = flag.Int64("soak.tuples", 0, "tuples per sender in the soak workload (0 = topology default)")
		soakCorrupt = flag.Float64("soak.corrupt", 1e-3, "baseline per-link corruption probability during the soak")
		soakBreak   = flag.Bool("soak.break-checksums", false, "disable checksum verification (fault hook) to demo harness detection (topology=rack)")
		soakSpines  = flag.Int("soak.spines", 0, "fat-tree soak spine switches (0 = default 2; topology=fattree)")
		soakLeaves  = flag.Int("soak.leaves", 0, "fat-tree soak leaf switches or multi-rack soak racks (0 = default 3; topology=fattree or multirack)")
	)
	flag.Parse()
	if *soak {
		runSoak(*topoName, *soakRuns, chaos.Config{
			Seed: *soakSeed, Events: *soakEvents, Senders: *soakSenders, Tuples: *soakTuples,
			Spines: *soakSpines, Leaves: *soakLeaves,
			Base: netsim.Fault{CorruptProb: *soakCorrupt}, DisableChecksumVerify: *soakBreak,
		})
		return
	}

	topo, ok := topologies[*topoName]
	if !ok {
		fail("unknown -topology %q (rack, multirack or fattree)", *topoName)
	}
	rejectFlags(topo.rejects, "-topology "+*topoName)
	if *replay != "" {
		rejectFlags(map[string]string{
			"tuples":   "the trace supplies the tuples",
			"distinct": "the trace supplies the keys",
			"skew":     "the trace supplies the key distribution",
		}, "-replay")
	}
	s := shape{
		groups: 1, hosts: *hosts, spines: *spines, tenants: *tenants, seed: *seed,
		cfg: core.DefaultConfig(), link: netsim.DefaultLinkConfig(),
		tel: *telem || *jsonOut != "",
	}
	if _, single := topo.rejects["leaves"]; !single {
		s.groups = *leaves
	}
	s.cfg.DataChannels = *channels
	s.cfg.SwapThreshold = *swap
	s.link.Fault.LossProb = *loss
	s.link.Fault.DupProb = *dup
	switch {
	case s.groups > 1:
		rejectFlags(map[string]string{"senders": "every task sends from one host per other group"}, "a run over several groups")
		if s.tenants > s.hosts {
			fail("need -tenants <= -hosts (one receiver slot per tenant)")
		}
	case s.tenants == 0 && *senders >= s.hosts:
		fail("need senders < hosts (host 0 is the receiver)")
	case s.tenants+*senders > s.hosts:
		fail("need -tenants + -senders <= -hosts on a single group (tenant i receives in slot i, slots i+1.. send)")
	}

	d, tenancyMgr, err := topo.build(s)
	if err != nil {
		fail("%v", err)
	}
	switches := d.Switches()
	if *layoutF {
		fmt.Print(switches[0].Pipeline().Describe())
		return
	}
	if topo.header != nil {
		fmt.Println(topo.header(s))
	}

	// Lay out the jobs and fill every sender slot from the chosen workload
	// source; Send folds each into its job's host-computed reference.
	jobs, slots := layout(s, *senders, *rows)
	sent := make(map[*ask.Job]int64) // tuples streamed, for the rate line
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fail("%v", err)
		}
		hdr, tkvs, err := workload.ReadTimedTrace(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		if hdr.Scenario != "" {
			fmt.Printf("replaying scenario %q (trace v%d, seed %d, %d records)\n",
				hdr.Scenario, hdr.Version, hdr.Seed, hdr.Records)
		}
		for i, part := range workload.SplitTimedRoundRobin(tkvs, len(slots)) {
			slots[i].job.SendTimed(slots[i].host, part)
			sent[slots[i].job] += int64(len(part))
		}
	} else {
		for _, sl := range slots {
			sl.job.Send(sl.host, workload.Spec{
				Name: "cli", Distinct: *distinct, Tuples: *tuples,
				Skew: *skew, Seed: *seed + sl.seedOff,
				KeyLens: workload.NaturalLanguage(0),
			})
			sent[sl.job] += *tuples
		}
	}

	// Start every task, run to quiescence, collect and verify: -verify=false
	// ignores a wrong aggregate and nothing else.
	if err := d.Start(jobs...); err != nil {
		fail("%v", err)
	}
	d.Sim.Run(0)
	d.Sim.Close() // the report below reads counters only
	results := make([]*ask.TaskResult, len(jobs))
	for i, j := range jobs {
		var wrong *core.MismatchError
		if results[i], err = j.Result(); errors.As(err, &wrong) {
			if *verify {
				fail("RESULT MISMATCH (%s): %s", j.Label(), wrong.Diff)
			}
		} else if err != nil {
			fail("%s: %v", j.Label(), err)
		}
	}
	if *verify {
		fmt.Println("result verified exact against host-computed reference ✓")
	}

	// Report: per-task summary, switch totals, per-task receiver and links.
	var sw switchd.TaskStats
	for i, j := range jobs {
		res := results[i]
		el := time.Duration(res.Elapsed)
		fmt.Printf("\n%s completed in %v (virtual time)\n", j.Label(), el)
		fmt.Printf("  distinct result keys:  %d\n", len(res.Result))
		fmt.Printf("  aggregation rate:      %.1f M tuples/s\n", float64(sent[j])/el.Seconds()/1e6)
		sw.Add(&res.Switch)
	}
	fmt.Printf("\nswitch:\n")
	fmt.Printf("  tuples aggregated:     %d / %d eligible (%.2f%%)\n",
		sw.TuplesAggregated, sw.TuplesIn, 100*sw.AggregatedTupleRatio())
	fmt.Printf("  packets fully ACKed:   %d / %d (%.2f%%)\n",
		sw.AckedPackets, sw.DataPackets, 100*sw.AckedPacketRatio())
	var gs switchd.Stats
	for _, x := range switches {
		st := x.Stats()
		gs.DupPackets += st.DupPackets
		gs.StaleDropped += st.StaleDropped
		gs.Swaps += st.Swaps
	}
	fmt.Printf("  dup pkts / stale pkts: %d / %d\n", gs.DupPackets, gs.StaleDropped)
	fmt.Printf("  shadow-copy swaps:     %d\n", gs.Swaps)
	if len(switches) > 1 {
		// Per-tuple counters are per-task (switchd.TaskStats), so sum the
		// jobs' tasks at each switch to show where the fabric absorbed the
		// stream.
		for i, x := range switches {
			var at switchd.TaskStats
			for _, j := range jobs {
				at.Add(x.TaskStatsOf(j.Spec.ID))
			}
			fmt.Printf("  %-22s %d tuples absorbed\n", topo.switchName(s, i), at.TuplesAggregated)
		}
	}
	for i, j := range jobs {
		res := results[i]
		fmt.Printf("\nreceiver (host %d):\n", j.Spec.Receiver)
		fmt.Printf("  residue tuples:        %d\n", res.Recv.ResidueTuples)
		fmt.Printf("  long-key tuples:       %d\n", res.Recv.LongTuples)
		fmt.Printf("  switch entries merged: %d\n", res.Recv.SwitchEntries)
		fmt.Printf("  completed swaps:       %d\n", res.Recv.Swaps)
	}
	fmt.Printf("\nnetwork:\n")
	for i, j := range jobs {
		el := time.Duration(results[i].Elapsed)
		for _, h := range j.Spec.Senders {
			up := d.HostUplink(h).Stats()
			fmt.Printf("  host %d uplink:        %.2f Gbps wire, %.2f Gbps goodput, %d frames (%d dropped)\n",
				h, stats.Gbps(up.TxWireBytes, el), stats.Gbps(up.TxGoodBytes, el), up.TxFrames, up.Dropped)
		}
		down := d.HostDownlink(j.Spec.Receiver).Stats()
		fmt.Printf("  receiver downlink:    %.2f Gbps wire (%d frames)\n", stats.Gbps(down.TxWireBytes, el), down.TxFrames)
	}
	if tenancyMgr != nil {
		fmt.Printf("\ntenancy (AA rows of %d):\n", d.Config().AARows)
		for _, u := range tenancyMgr.Snapshot() {
			fmt.Printf("  tenant %d: quota %5d rows, in use %d, over quota %d\n",
				u.Tenant, u.Quota, u.InUse, u.Borrowed)
		}
	}

	if tel := d.Tel; tel != nil {
		if *jsonOut != "" {
			writeJSON(*jsonOut, tel)
		} else {
			fmt.Println()
			fmt.Println(telemetry.Report(tel.Registry).String())
			if tr := tel.Tracer; tr != nil {
				fmt.Printf("trace: %d events captured (%d dropped)\n", len(tr.Events()), tr.Dropped())
			}
		}
	}
}
