package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/training"
)

// Fig12Config parameterizes the distributed-training comparison (Fig. 12).
type Fig12Config struct {
	Workers int
	// GradScale divides the simulated gradient volume (see training.Options).
	GradScale int64
}

// DefaultFig12 is the benchmark-scale preset.
func DefaultFig12() Fig12Config { return Fig12Config{Workers: 8, GradScale: 64} }

// QuickFig12 is the test-scale preset.
func QuickFig12() Fig12Config { return Fig12Config{Workers: 4, GradScale: 1024} }

// Fig12 measures training throughput (images/s) of every zoo model under
// ASK's value-stream mode, ATP-like and SwitchML-like synchronous INA, and
// the host-only parameter server.
func Fig12(cfg Fig12Config) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 12: single-job training throughput (images/s)",
		Note:   fmt.Sprintf("%d workers, batch 32, PS architecture", cfg.Workers),
		Header: []string{"model", "ASK", "ATP", "SwitchML", "HostPS"},
	}
	systems := []training.System{training.SysASK, training.SysATP, training.SysSwitchML, training.SysHostPS}
	for _, m := range training.Models() {
		cells := []any{m.Name}
		for _, sys := range systems {
			rep, err := training.Train(m, sys, training.Options{
				Workers:   cfg.Workers,
				GradScale: cfg.GradScale,
				Seed:      seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fig12 %s/%v: %w", m.Name, sys, err)
			}
			cells = append(cells, rep.ImagesPerSec)
		}
		t.AddRow(cells...)
	}
	return t, nil
}
