// Streaming: the asynchronous-aggregation scenario that motivates ASK
// (§2.1.3) — an unbounded real-time key-value stream aggregated in tumbling
// windows over a lossy network, one ASK task per window. Keys are unordered
// and unforeseeable; every window's result is verified exact despite 2%
// packet loss and reordering.
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
	"repro/internal/workload"
)

// window is one source's slice of a tumbling window.
type window []core.KV

func (w window) Stream() core.Stream { return core.SliceStream(w) }

// cut takes the next n tuples of an unbounded source as one window.
func cut(src core.Stream, n int) window {
	w := make(window, n)
	for i := range w {
		w[i], _ = src()
	}
	return w
}

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
	// Two unbounded event sources, cut into consecutive windows.
	src1 := workload.Zipf(4096, 1<<30, 1.1, workload.Shuffled, 1000).Stream()
	src2 := workload.Zipf(4096, 1<<30, 1.1, workload.Shuffled, 2000).Stream()
	jobs := make([]*ask.Job, windows)
	for w := range jobs {
		// All windows run concurrently and share the switch's 32768
		// aggregator rows; size each window's region accordingly.
		jobs[w] = ask.NewJob(core.TaskSpec{ID: core.TaskID(1 + w), Receiver: 0, Op: core.OpSum, Rows: 4096})
		jobs[w].Send(1, cut(src1, eventsPerWindow))
		jobs[w].Send(2, cut(src2, eventsPerWindow))
	}

	// Run returns the windows only if each equals the keyed reduce of its
	// own slices (a *core.MismatchError otherwise).
	results, err := cluster.Run(jobs...)
	if err != nil {
		log.Fatal(err)
	}
	for w, res := range results {
		fmt.Printf("window %d: %6d events  %4d keys  %9v  [EXACT]\n",
			w, 2*eventsPerWindow, len(res.Result),
			time.Duration(res.Elapsed).Round(time.Microsecond))
	}
	fmt.Println("\nevery window exact: the sliding window + compact seen + PktState")
	fmt.Println("machinery deduplicates retransmissions at both the switch and host.")
}
