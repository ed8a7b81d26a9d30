package ask_test

import (
	"fmt"
	"sort"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
)

// words is one sender's stream, the source Job.Send takes.
type words []core.KV

func (w words) Stream() core.Stream { return core.SliceStream(w) }

// The smallest complete use of the service: three senders, one receiver,
// exact word counts out.
func ExampleCluster_aggregate() {
	cluster, err := ask.NewCluster(ask.Options{Hosts: 4, Seed: 42})
	if err != nil {
		panic(err)
	}
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	job.Send(1, words{{Key: "go", Val: 3}, {Key: "gopher", Val: 1}})
	job.Send(2, words{{Key: "go", Val: 4}})
	job.Send(3, words{{Key: "gopher", Val: 7}})
	results, err := cluster.Run(job) // a wrong aggregate is a *core.MismatchError
	if err != nil {
		panic(err)
	}
	res := results[0]
	keys := make([]string, 0, len(res.Result))
	for k := range res.Result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, res.Result[k])
	}
	// Output:
	// go=7
	// gopher=8
}

// Aggregation stays exact on an unreliable network: the reliability
// machinery (§3.3) deduplicates every retransmission at the switch and the
// host.
func ExampleOptions_faultInjection() {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.05
	link.Fault.DupProb = 0.02
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 20 * time.Microsecond

	cluster, err := ask.NewCluster(ask.Options{Hosts: 2, Seed: 7, Link: link})
	if err != nil {
		panic(err)
	}
	var kvs words
	for i := 0; i < 10000; i++ {
		kvs = append(kvs, core.KV{Key: fmt.Sprintf("k%d", i%100), Val: 1})
	}
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0})
	job.Send(1, kvs)
	results, err := cluster.Run(job)
	if err != nil {
		panic(err)
	}
	fmt.Println(results[0].Result["k0"] == 100, len(results[0].Result))
	// Output:
	// true 100
}
