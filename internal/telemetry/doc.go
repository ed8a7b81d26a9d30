// Package telemetry is the observability substrate of the ASK reproduction:
// a dependency-free metrics registry, a sim-clock event tracer, and a
// periodic gauge sampler, with a JSON snapshot export.
//
// The paper (He et al., ASPLOS 2023) evaluates ASK almost entirely through
// switch and host counters — aggregation throughput and effectiveness
// (Table 1), goodput, retransmissions, and hot-key swap behaviour
// (Figs. 8–13). This package gives those numbers one home instead of four
// ad-hoc Stats structs:
//
//   - Registry hands out typed Counter, Gauge, and log-linear Histogram
//     instruments under hierarchical dotted names with labels, e.g.
//     switchd.tuples_aggregated{task="1"}. Hot paths touch a single
//     atomic; a nil instrument is a no-op whose calls the inliner erases.
//   - Tracer keeps a bounded ring of structured events (packet-drop
//     reasons, compact-seen replay decisions, shadow-copy swaps, epoch
//     changes, failover enter/exit, window stall/resume) stamped with the
//     virtual clock and labeled with the emitting component.
//   - Sampler snapshots every gauge on a fixed virtual-time period into
//     time series, so experiments can plot aggregator occupancy or window
//     fill over time deterministically: two runs with equal seeds produce
//     byte-identical series.
//   - TakeSnapshot/WriteJSON export the registry, series and trace events;
//     Report renders a human table via internal/stats.
//
// Components receive a Sink{Reg, Tr}. A zero Sink is valid everywhere and
// means one thing: the component counts on a private registry
// (Sink.Registry), so its Stats views work, while what only an exporter
// reads — trace events, link gauges, window histograms — is left out.
package telemetry
