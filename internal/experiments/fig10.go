package experiments

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// Fig10Config parameterizes the WordCount job-completion-time comparison
// (Fig. 10) and the task-completion-time breakdown (Fig. 11).
type Fig10Config struct {
	MappersPerMachine  int
	ReducersPerMachine int
	// Volumes is the x-axis: tuples per mapper (paper: 5/10/15/20 ×10⁷;
	// scaled).
	Volumes []int64
	// DistinctKeys per mapper (paper: 2¹⁸; scaled with volume).
	DistinctKeys int
}

const (
	// fig10Machines is the cluster size at every scale.
	fig10Machines = 3
)

// DefaultFig10 is the benchmark-scale preset (1/500 of the paper's volume,
// 8 mappers/reducers per machine instead of 32).
func DefaultFig10() Fig10Config {
	return Fig10Config{
		MappersPerMachine:  8,
		ReducersPerMachine: 8,
		Volumes:            []int64{60_000, 120_000, 180_000},
		DistinctKeys:       16_384,
	}
}

// QuickFig10 is the test-scale preset.
func QuickFig10() Fig10Config {
	return Fig10Config{
		MappersPerMachine:  2,
		ReducersPerMachine: 2,
		Volumes:            []int64{60_000},
		DistinctKeys:       4_096,
	}
}

var fig10Transports = []mapreduce.Transport{
	mapreduce.Vanilla, mapreduce.SHM, mapreduce.RDMA, mapreduce.ASK,
}

// Fig10 runs WordCount under each shuffle strategy at each volume and
// reports job completion times.
func Fig10(cfg Fig10Config) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 10: WordCount job completion time",
		Note: fmt.Sprintf("%d machines × %d mappers, %d reducers/machine",
			fig10Machines, cfg.MappersPerMachine, cfg.ReducersPerMachine),
		Header: []string{"tuples/mapper", "Spark", "SparkSHM", "SparkRDMA", "ASK", "ASK gain"},
	}
	for _, vol := range cfg.Volumes {
		cells := []any{vol}
		var sparkJCT, askJCT float64
		for _, tr := range fig10Transports {
			rep, err := fig10Run(cfg, vol, tr)
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

// Fig11 reports the mapper/reducer task-completion-time breakdown at one
// volume (the paper's 10×10⁷ point, scaled).
func Fig11(cfg Fig10Config) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 11: mean task completion time breakdown",
		Note:   "ASK mappers skip pre-aggregation; its reducers merge switch state",
		Header: []string{"system", "mapper TCT", "reducer TCT", "JCT"},
	}
	vol := cfg.Volumes[len(cfg.Volumes)/2]
	for _, tr := range fig10Transports {
		rep, err := fig10Run(cfg, vol, tr)
		if err != nil {
			return nil, err
		}
		t.AddRow(tr.String(), rep.MeanMapperTCT(), rep.MeanReducerTCT(), rep.JCT)
	}
	return t, nil
}

func fig10Run(cfg Fig10Config, vol int64, tr mapreduce.Transport) (mapreduce.Report, error) {
	rep, err := mapreduce.Run(mapreduce.Config{
		Machines:           fig10Machines,
		MappersPerMachine:  cfg.MappersPerMachine,
		ReducersPerMachine: cfg.ReducersPerMachine,
		TuplesPerMapper:    vol,
		DistinctKeys:       cfg.DistinctKeys,
		Transport:          tr,
		Seed:               seed,
	})
	if err != nil {
		return rep, fmt.Errorf("fig10 %v vol=%d: %w", tr, vol, err)
	}
	return rep, nil
}
