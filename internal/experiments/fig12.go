package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/training"
)

// fig12 measures training throughput (images/s) of every zoo model under
// ASK's value-stream mode, ATP-like and SwitchML-like synchronous INA, and
// the host-only parameter server (Fig. 12).
func fig12(quick bool) (*stats.Table, error) {
	// Workers, and the divisor of the simulated gradient volume (see
	// training.Options).
	workers, gradScale := 8, int64(64)
	if quick {
		workers, gradScale = 4, 1024
	}
	t := &stats.Table{
		Title:  "Fig. 12: single-job training throughput (images/s)",
		Note:   fmt.Sprintf("%d workers, batch 32, PS architecture", workers),
		Header: []string{"model", "ASK", "ATP", "SwitchML", "HostPS"},
	}
	systems := []training.System{training.SysASK, training.SysATP, training.SysSwitchML, training.SysHostPS}
	for _, m := range training.Models() {
		cells := []any{m.Name}
		for _, sys := range systems {
			rep, err := training.Train(m, sys, training.Options{
				Workers:   workers,
				GradScale: gradScale,
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
