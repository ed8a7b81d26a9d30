package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The deployment and the task at every scale: multiRackSenders senders over
// multiRackRacks racks of multiRackHostsPerRack hosts.
const (
	multiRackRacks        = 4
	multiRackHostsPerRack = 4
	multiRackSenders      = 6
)

// multiRack is the §7 multi-rack study: how in-network absorption and
// completion time change as the task's senders move from the receiver's
// rack to remote racks (whose traffic bypasses the receiver's TOR and is
// aggregated at the host). It sweeps the number of remote senders from 0
// (all rack-local, full INA) to all-remote (pure host aggregation).
func multiRack(quick bool) (*stats.Table, error) {
	perSender, distinct := int64(400_000), 4096
	if quick {
		perSender, distinct = 30_000, 1024
	}
	t := &stats.Table{
		Title: "Extension (§7): multi-rack deployment — remote senders bypass the receiver TOR",
		Note: fmt.Sprintf("%d racks × %d hosts, %d senders, %d tuples each",
			multiRackRacks, multiRackHostsPerRack, multiRackSenders, perSender),
		Header: []string{"remote senders", "switch-aggregated %", "host residue %", "elapsed"},
	}
	for remote := 0; remote <= multiRackSenders; remote += 2 {
		opts := ask.MultiRackOptions{
			Racks:        multiRackRacks,
			HostsPerRack: multiRackHostsPerRack,
			Seed:         seed,
		}
		fc, err := ask.NewMultiRackCluster(opts)
		if err != nil {
			return nil, err
		}
		receiver := opts.HostAt(0, 0)
		var senders []core.HostID
		for i := 0; i < multiRackSenders; i++ {
			if i < multiRackSenders-remote {
				// Rack-local sender (skipping the receiver's slot).
				senders = append(senders, opts.HostAt(0, 1+i%(multiRackHostsPerRack-1)))
			} else {
				senders = append(senders, opts.HostAt(1+i%(multiRackRacks-1), i%multiRackHostsPerRack))
			}
		}
		senders = dedupHosts(senders)
		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
		for i, s := range senders {
			j.Send(s, workload.Uniform(distinct, perSender, seed+int64(i)))
		}
		results, err := fc.Run(j)
		fc.Sim.Close()
		if err != nil {
			return nil, fmt.Errorf("multirack remote=%d: %w", remote, err)
		}
		res, total := results[0], perSender*int64(len(senders))
		t.AddRow(remote,
			100*float64(res.Switch.TuplesAggregated)/float64(total),
			100*float64(res.Recv.ResidueTuples)/float64(total),
			res.Elapsed.Sub(0))
	}
	return t, nil
}

// dedupHosts removes duplicate sender assignments (small sweeps can fold
// two slots onto one host).
func dedupHosts(in []core.HostID) []core.HostID {
	seen := make(map[core.HostID]bool)
	var out []core.HostID
	for _, h := range in {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}
