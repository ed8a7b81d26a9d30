package experiments

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/stats"
)

const (
	// fig10Machines is the cluster size at every scale.
	fig10Machines = 3
)

var fig10Transports = []mapreduce.Transport{
	mapreduce.Vanilla, mapreduce.SHM, mapreduce.RDMA, mapreduce.ASK,
}

// wordCount is the WordCount job of Figs. 10 and 11 at one scale: the
// x-axis of tuples per mapper, and the job every point runs with its volume
// and transport left to set.
func wordCount(quick bool) ([]int64, mapreduce.Config) {
	// Tuples per mapper (paper: 5/10/15/20 ×10⁷; scaled), mappers and
	// reducers per machine (paper: 32 each), distinct keys per mapper
	// (paper: 2¹⁸; scaled with volume).
	volumes, perMachine, distinct := []int64{60_000, 120_000, 180_000}, 8, 16_384
	if quick {
		volumes, perMachine, distinct = []int64{60_000}, 2, 4_096
	}
	return volumes, mapreduce.Config{
		Machines:           fig10Machines,
		MappersPerMachine:  perMachine,
		ReducersPerMachine: perMachine,
		DistinctKeys:       distinct,
		Seed:               seed,
	}
}

// fig10 runs WordCount under each shuffle strategy at each volume and
// reports job completion times (Fig. 10).
func fig10(quick bool) (*stats.Table, error) {
	volumes, job := wordCount(quick)
	t := &stats.Table{
		Title: "Fig. 10: WordCount job completion time",
		Note: fmt.Sprintf("%d machines × %d mappers, %d reducers/machine",
			job.Machines, job.MappersPerMachine, job.ReducersPerMachine),
		Header: []string{"tuples/mapper", "Spark", "SparkSHM", "SparkRDMA", "ASK", "ASK gain"},
	}
	for _, vol := range volumes {
		cells := []any{vol}
		var sparkJCT, askJCT float64
		for _, tr := range fig10Transports {
			rep, err := fig10Run(job, vol, tr)
			if err != nil {
				return nil, err
			}
			cells = append(cells, rep.JCT)
			switch tr {
			case mapreduce.Vanilla:
				sparkJCT = rep.JCT.Seconds()
			case mapreduce.ASK:
				askJCT = rep.JCT.Seconds()
			}
		}
		reduction := 0.0
		if sparkJCT > 0 {
			reduction = 100 * (1 - askJCT/sparkJCT)
		}
		cells = append(cells, fmt.Sprintf("-%.1f%%", reduction))
		t.AddRow(cells...)
	}
	return t, nil
}

// fig11 reports the mapper/reducer task-completion-time breakdown at one
// volume (Fig. 11; the paper's 10×10⁷ point, scaled).
func fig11(quick bool) (*stats.Table, error) {
	volumes, job := wordCount(quick)
	t := &stats.Table{
		Title:  "Fig. 11: mean task completion time breakdown",
		Note:   "ASK mappers skip pre-aggregation; its reducers merge switch state",
		Header: []string{"system", "mapper TCT", "reducer TCT", "JCT"},
	}
	vol := volumes[len(volumes)/2]
	for _, tr := range fig10Transports {
		rep, err := fig10Run(job, vol, tr)
		if err != nil {
			return nil, err
		}
		t.AddRow(tr.String(), rep.MeanMapperTCT(), rep.MeanReducerTCT(), rep.JCT)
	}
	return t, nil
}

func fig10Run(job mapreduce.Config, vol int64, tr mapreduce.Transport) (mapreduce.Report, error) {
	job.TuplesPerMapper, job.Transport = vol, tr
	rep, err := mapreduce.Run(job)
	if err != nil {
		return rep, fmt.Errorf("fig10 %v vol=%d: %w", tr, vol, err)
	}
	return rep, nil
}
