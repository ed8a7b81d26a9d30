// Streaming: the asynchronous-aggregation scenario that motivates ASK
// (§2.1.3) — an unbounded real-time key-value stream aggregated in tumbling
// windows over a lossy network, via the windowed-streaming library built on
// the service. Keys are unordered and unforeseeable; every window's result
// is verified exact despite 2% packet loss and reordering.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/streaming"
	"repro/internal/workload"
)

func main() {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 50 * time.Microsecond

	cluster, err := ask.NewCluster(ask.Options{Hosts: 3, Link: link, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tumbling-window aggregation of a skewed event stream")
	fmt.Println("(2% loss + reordering on every link; exactness checked per window)")
	fmt.Println()

	const windows = 5
	const eventsPerWindow = 50_000
	// Two unbounded event sources; reference copies window them identically.
	src1 := workload.Zipf(4096, 1<<30, 1.1, workload.Shuffled, 1000)
	src2 := workload.Zipf(4096, 1<<30, 1.1, workload.Shuffled, 2000)
	ref1, ref2 := src1.Stream(), src2.Stream()

	results, err := streaming.Run(cluster.Streaming(), streaming.Config{
		Receiver:     0,
		Sources:      []core.HostID{1, 2},
		WindowTuples: eventsPerWindow,
		Windows:      windows,
		Op:           core.OpSum,
		BaseTask:     1,
		// All windows run concurrently and share the switch's 32768
		// aggregator rows; size each window's region accordingly.
		Rows: 4096,
	}, map[core.HostID]core.Stream{1: src1.Stream(), 2: src2.Stream()})
	if err != nil {
		log.Fatal(err)
	}

	for _, res := range results {
		want := make(core.Result)
		for i := 0; i < eventsPerWindow; i++ {
			kv, _ := ref1()
			want.MergeKV(kv, core.OpSum)
			kv, _ = ref2()
			want.MergeKV(kv, core.OpSum)
		}
		if err := res.Result.Verify(want); err != nil {
			log.Fatalf("window %d: %v", res.Index, err)
		}
		fmt.Printf("window %d: %6d events  %4d keys  %9v  [EXACT]\n",
			res.Index, 2*eventsPerWindow, len(res.Result),
			time.Duration(res.Elapsed).Round(time.Microsecond))
	}
	fmt.Println("\nevery window exact: the sliding window + compact seen + PktState")
	fmt.Println("machinery deduplicates retransmissions at both the switch and host.")
}
