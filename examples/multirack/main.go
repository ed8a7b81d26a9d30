// Multi-rack: the §7 deployment — one ASK switch per top-of-rack, a
// forwarding core between racks. Rack-local senders get in-network
// aggregation at the receiver's TOR; cross-rack traffic bypasses it and is
// aggregated at the receiver host, so no TOR ever holds another rack's
// channel state. The deployment is a preset of the fat-tree (TORs are its
// Leaves), so a TOR can also crash and reboot mid-task under Config.Failover.
//
//	go run ./examples/multirack
package main

import (
	"fmt"
	"log"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	opts := ask.MultiRackOptions{Racks: 3, HostsPerRack: 4, Seed: 11}
	fc, err := ask.NewMultiRackCluster(opts)
	if err != nil {
		log.Fatal(err)
	}

	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{
		opts.HostAt(0, 1), opts.HostAt(0, 2), // rack-local: INA at TOR 0
		opts.HostAt(1, 0), opts.HostAt(2, 3), // remote: host aggregation
	}
	// Run returns the outcome only if it equals the plain keyed reduce of
	// the senders' streams (a *core.MismatchError otherwise).
	const perSender = 100_000
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(4096, perSender, int64(i)))
	}
	results, err := fc.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]
	total := int64(len(senders) * perSender)
	fmt.Printf("aggregated %d tuples from %d senders across 3 racks in %v [EXACT]\n",
		total, len(senders), time.Duration(res.Elapsed).Round(time.Microsecond))
	fmt.Printf("  receiver TOR absorbed:  %d tuples (%.1f%% of total — the two rack-local senders)\n",
		res.Switch.TuplesAggregated, 100*float64(res.Switch.TuplesAggregated)/float64(total))
	fmt.Printf("  receiver host residue:  %d tuples (cross-rack bypass, §7)\n", res.Recv.ResidueTuples)
	for r := 0; r < opts.Racks; r++ {
		ts := fc.Leaves[r].TaskStatsOf(1)
		fmt.Printf("  TOR %d aggregated %d tuples of this task\n", r, ts.TuplesAggregated)
	}
	fmt.Println("\nonly the receiver's TOR ever held task state (freed at teardown);")
	fmt.Println("remote TORs stayed stateless, which bounds switch memory in large networks.")
}
