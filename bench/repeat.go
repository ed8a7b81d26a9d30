package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// recordPrefix marks the stdout line of a single-workload run that carries
// its full report; the parent modes collect it from each child.
const recordPrefix = "record: "

// resultSet is a collection of workload reports, as written under
// bench/results/.
type resultSet struct {
	Reports []*report `json:"reports"`
}

func (s resultSet) failed() bool {
	for _, r := range s.Reports {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

// runChild runs one workload in a child process (this binary with -workload),
// so heap state and peak RSS do not leak between workloads, passes the child's
// table through and returns its report.
func runChild(name string, cfg runConfig, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var rep *report
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, recordPrefix):
			rep = new(report)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, recordPrefix)), rep); err != nil {
				return nil, fmt.Errorf("workload %s: bad record line: %w", name, err)
			}
		case strings.HasPrefix(line, "{"):
			// the one-line contract result; the record carries the same numbers
		default:
			fmt.Println(line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("workload %s: child printed no record", name)
	}
	return rep, nil
}

// runAll runs every workload once, each in its own child process.
func runAll(cfg runConfig, trace int) (resultSet, error) {
	var set resultSet
	for _, w := range workloads {
		rep, err := runChild(w.name, cfg, trace)
		if err != nil {
			return set, err
		}
		set.Reports = append(set.Reports, rep)
	}
	return set, nil
}

func writeSet(path string, set resultSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultsDir is where -check-repeat leaves its two sets; the command is run
// from the repository root, like every other use of the benchmark.
const resultsDir = "bench/results"

// repeatRuns is how many runs of each workload a -check-repeat set holds. The
// sets are compared by their medians, as the bounds are meant to be used: on
// this host a single run can be 15% off for a minute whatever the code does.
const repeatRuns = 3

// runCheckRepeat takes two end-to-end sets of the same code and seed, writes
// both under bench/results/, and fails when the second set's median is worse
// than the first's by more than a metric's bound, when any simulated record
// differs at all, or when any task failed. The runs of the two sets alternate
// (which side goes first alternates too), so slow drift of the host hits both.
func runCheckRepeat(cfg runConfig) error {
	var sets [2]resultSet
	for _, w := range workloads {
		for r := 0; r < repeatRuns; r++ {
			for i := range sets {
				side := (i + r) % 2
				rep, err := runChild(w.name, cfg, 0)
				if err != nil {
					return err
				}
				sets[side].Reports = append(sets[side].Reports, rep)
			}
		}
	}
	for i, set := range sets {
		if err := writeSet(filepath.Join(resultsDir, fmt.Sprintf("repeat-%d.json", i+1)), set); err != nil {
			return err
		}
	}
	misses := compareSets(sets[0], sets[1])
	for _, m := range misses {
		fmt.Println("MISS", m)
	}
	if len(misses) > 0 {
		return fmt.Errorf("check-repeat: %d misses", len(misses))
	}
	fmt.Println("check-repeat: both sets agree within every bound")
	return nil
}

// compareSets lists every way set b fails to repeat set a: per workload, the
// median of each end-to-end metric over the set's runs against its bound, and
// every run's simulated record against the first.
func compareSets(a, b resultSet) []string {
	var misses []string
	for _, w := range workloads {
		ra, rb := a.of(w.name), b.of(w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]*report(nil), ra...), rb...) {
			if r.Failed > 0 {
				misses = append(misses, fmt.Sprintf("%s: %d failed tasks", w.name, r.Failed))
			}
			if d := ra[0].Sim.diff(r.Sim, false); d != "" {
				misses = append(misses, fmt.Sprintf("%s: simulated record differs: %s", w.name, d))
			}
		}
		for _, d := range endToEnd {
			va, ua := medianOf(ra, d.Name)
			vb, ub := medianOf(rb, d.Name)
			if ua+ub != "" {
				fmt.Printf("UNRESOLVED %s %s: %s\n", w.name, d.Name, ua+ub)
				continue
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			if worse > d.Bound {
				misses = append(misses, fmt.Sprintf("%s %s: %.6g then %.6g, %.1f%% worse, bound %.0f%%",
					w.name, d.Name, va, vb, 100*worse, 100*d.Bound))
			}
		}
	}
	return misses
}

// of returns the set's reports of one workload.
func (s resultSet) of(workload string) []*report {
	var out []*report
	for _, r := range s.Reports {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// medianOf is the median of one metric over the reports that resolved it; a
// run that marked the number unresolved (its own reps disagreed too much) does
// not count. With no resolved run it returns the reason instead.
func medianOf(reports []*report, metric string) (float64, string) {
	var xs []float64
	unresolved := ""
	for _, r := range reports {
		if v := r.Metrics[metric]; v.Unresolved == "" {
			xs = append(xs, v.Value)
		} else {
			unresolved = v.Unresolved
		}
	}
	if len(xs) > 0 {
		return summarize(xs).Median, ""
	}
	return 0, unresolved
}
