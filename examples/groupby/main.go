// GroupBy: the database aggregation pattern from the paper's introduction
// (SUM() in databases, TPC-H-style) — a distributed
//
//	SELECT region, SUM(revenue) FROM sales GROUP BY region
//
// over table partitions stored on three hosts, executed as one ASK
// aggregation task: partitions stream (region, revenue) tuples, the switch
// sums them in flight, and the coordinator reads the grouped result.
//
//	go run ./examples/groupby
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"repro/ask"
	"repro/internal/core"
)

var regions = []string{
	"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST",
	"APAC", "EMEA", "LATAM", "NORDIC", "OCEANIA",
}

// partition is one host's shard of the sales table, scanned as a stream.
type partition []core.KV

func (p partition) Stream() core.Stream { return core.SliceStream(p) }

// salesPartition generates one host's shard of the sales table.
func salesPartition(seed int64, rows int) partition {
	rng := rand.New(rand.NewSource(seed))
	kvs := make(partition, rows)
	for i := range kvs {
		kvs[i] = core.KV{
			Key: regions[rng.Intn(len(regions))],
			Val: int64(rng.Intn(9_999) + 1), // revenue in cents
		}
	}
	return kvs
}

func main() {
	cluster, err := ask.NewCluster(ask.Options{Hosts: 4, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}

	// Run returns the aggregate only if it equals the plain keyed reduce of
	// the three partitions (a *core.MismatchError otherwise).
	const rowsPerPartition = 200_000
	query := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for h := core.HostID(1); h <= 3; h++ {
		query.Send(h, salesPartition(int64(h), rowsPerPartition))
	}
	results, err := cluster.Run(query)
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]

	fmt.Println("SELECT region, SUM(revenue) FROM sales GROUP BY region;")
	fmt.Println()
	keys := make([]string, 0, len(res.Result))
	for k := range res.Result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-8s %14.2f\n", k, float64(res.Result[k])/100)
	}
	fmt.Printf("\n%d rows scanned across 3 partitions in %v; the switch summed %.1f%%\n",
		3*rowsPerPartition, time.Duration(res.Elapsed).Round(time.Microsecond),
		100*res.Switch.AggregatedTupleRatio())
	fmt.Println("of the tuples in-network — the coordinator saw 10 groups, not 600k rows.")
}
