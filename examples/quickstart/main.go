// Quickstart: the smallest complete ASK program.
//
// Three senders stream word counts toward one receiver through a simulated
// rack (one programmable switch, 100 Gbps links). The switch aggregates
// tuples in flight; the receiver gets the exact total per word.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/ask"
	"repro/internal/core"
)

// words is one sender's key-value stream.
type words []core.KV

func (w words) Stream() core.Stream { return core.SliceStream(w) }

func main() {
	// A rack with four servers: host 0 is the receiver, 1..3 send.
	cluster, err := ask.NewCluster(ask.Options{Hosts: 4, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// One aggregation task; each Send adds a sender and its stream. Keys may
	// be any NUL-free bytes; the daemon routes short keys (≤4 B) and medium
	// keys (≤8 B) through switch aggregators and longer ones through the host
	// bypass automatically.
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	job.Send(1, words{{Key: "go", Val: 3}, {Key: "gopher", Val: 1}, {Key: "switch", Val: 2}})
	job.Send(2, words{{Key: "go", Val: 4}, {Key: "pipeline", Val: 5}})
	job.Send(3, words{{Key: "gopher", Val: 7}, {Key: "switch", Val: 1}, {Key: "go", Val: 1}})

	// Run returns the result only if it equals the plain keyed reduce of the
	// three streams (a *core.MismatchError otherwise).
	results, err := cluster.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]

	fmt.Println("aggregated result:")
	keys := make([]string, 0, len(res.Result))
	for k := range res.Result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-8s = %d\n", k, res.Result[k])
	}
	fmt.Printf("\ncompleted in %v of virtual time\n", time.Duration(res.Elapsed))
	fmt.Printf("switch aggregated %d of %d eligible tuples in-network\n",
		res.Switch.TuplesAggregated, res.Switch.TuplesIn)
}
