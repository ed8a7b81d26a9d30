package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// shareBuckets are the layers CPU-profile samples are attributed to, in
// report order; the shares of a workload sum to 1.
var shareBuckets = []string{
	"proc_switch", "sim_kernel", "sim_shard", "hostd", "window", "netsim", "switchd", "pisa",
	"wire", "keyspace", "core", "telemetry", "runtime_gc", "runtime_alloc", "other",
}

// repoBuckets maps a repository package to its bucket. Packages not listed
// (ask, cpumodel, tenancy, workload, the benchmark itself) land in "other".
var repoBuckets = []struct{ prefix, bucket string }{
	{"repro/internal/hostd.", "hostd"},
	{"repro/internal/window.", "window"},
	{"repro/internal/netsim.", "netsim"},
	{"repro/internal/switchd.", "switchd"},
	{"repro/internal/pisa.", "pisa"},
	{"repro/internal/wire.", "wire"},
	{"repro/internal/keyspace.", "keyspace"},
	{"repro/internal/core.", "core"},
	{"repro/internal/telemetry.", "telemetry"},
}

// bucketOf attributes one sample, given its stack innermost frame first: by
// the innermost frame that belongs to the repository, or — for stacks with no
// repository frame (scheduler, GC workers) — by runtime function family.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "repro/") {
			continue
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/sim."); ok {
			switch {
			case strings.HasPrefix(rest, "(*Proc)"), strings.HasPrefix(rest, "(*Signal)"),
				strings.HasPrefix(rest, "(*Resource)"), strings.HasPrefix(rest, "(*WaitGroup)"),
				strings.HasPrefix(rest, "(*Simulation).Spawn"):
				return "proc_switch"
			case strings.HasPrefix(rest, "(*ShardGroup)"), strings.HasPrefix(rest, "(*Simulation).window"),
				strings.HasPrefix(rest, "(*Simulation).execOne"), strings.HasPrefix(rest, "(*Simulation).InjectCall"),
				strings.HasPrefix(rest, "(*Simulation).enqueueInject"), strings.HasPrefix(rest, "(*Simulation).wakeTo"),
				strings.HasPrefix(rest, "(*Simulation).peekNext"):
				return "sim_shard"
			}
			return "sim_kernel"
		}
		for _, rb := range repoBuckets {
			if strings.HasPrefix(fn, rb.prefix) {
				return rb.bucket
			}
		}
		return "other"
	}
	family := func(words ...string) bool {
		for _, fn := range stack {
			for _, w := range words {
				if strings.Contains(fn, w) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case family("runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcAssist", "runtime.gcMark", "runtime.gcStart", "runtime.scanobject", "runtime.sweepone"):
		return "runtime_gc"
	case family("runtime.futex", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
		"runtime.chansend", "runtime.chanrecv", "runtime.goready", "runtime.gopark", "runtime.mcall",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup"):
		return "proc_switch"
	case family("runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice", "runtime.memclr"):
		return "runtime_alloc"
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces` text: blocks separated by dashed
// lines, each "<value><unit>   innermost" followed by one caller per line.
// It returns each bucket's share of the total sample value (all zero when
// the profile holds no samples).
func parseTraces(r io.Reader) (map[string]float64, error) {
	weight := make(map[string]float64)
	var total float64
	var stack []string
	var val float64
	flush := func() {
		if len(stack) > 0 {
			weight[bucketOf(stack)] += val
			total += val
		}
		stack, val = nil, 0
	}
	inSamples := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && len(fields) >= 2 {
			v, err := sampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			val = v
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if total > 0 { // a run too short to be sampled has no shares, not an error
			shares[b] = weight[b] / total
		}
	}
	return shares, nil
}

// sampleValue parses a pprof sample value such as "10ms", "1.52s" or "250us"
// into milliseconds.
func sampleValue(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		ms     float64
	}{{"ms", 1}, {"us", 1e-3}, {"ns", 1e-6}, {"s", 1e3}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.ms, err
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// scratchDir is where the benchmark keeps its own temporary files: inside the
// working directory (the checkout), next to the build output.
const scratchDir = ".bench_build"

// profileShares runs fn under the CPU profiler and buckets the samples.
func profileShares(fn func() error) (map[string]float64, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(scratchDir, "cpu-*.prof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	err = fn()
	pprof.StopCPUProfile() // the profile is complete on disk once this returns
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}
