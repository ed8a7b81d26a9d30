package pisa

import "repro/internal/telemetry"

// AttachTelemetry exposes the pipeline's resource counters as callback
// gauges on reg: pisa.passes (packet passes begun), pisa.sram_bytes
// (SRAM claimed by register arrays), and one pisa.array_accesses{array=…}
// per register array (data-plane RMWs — together with the per-task
// conflict counters in switchd this attributes where aggregation work
// lands). Every gauge also carries labels (a fabric switch's address).
// Callbacks are polled only at sample/export time, so the per-packet RMW
// path is untouched.
func (p *Pipeline) AttachTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.GaugeFunc("pisa.passes", func() int64 { return int64(p.passes) }, labels...)
	reg.GaugeFunc("pisa.sram_bytes", func() int64 { return int64(p.SRAMBytes()) }, labels...)
	var buf [2]telemetry.Label
	for _, st := range p.stages {
		for _, ra := range st.arrays {
			reg.GaugeFunc("pisa.array_accesses", func() int64 { return int64(ra.accesses) },
				append(append(buf[:0], labels...), telemetry.L("array", ra.name))...)
		}
	}
}
