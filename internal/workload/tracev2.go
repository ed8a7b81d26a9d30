package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Trace format v2 — the versioned timed-trace encoding.
//
// A v2 trace is a text file:
//
//	#askt	v2	{"seed":7,"scenario":"flash-crowd","records":50000,...}
//	0	the	1
//	1042	quick	1
//	...
//
// Line 1 is the header: the magic "#askt", the version tag, and a JSON
// metadata object (TraceHeader). Every following line is one record:
// arrival offset in nanoseconds (non-decreasing), key, value, separated by
// tabs. The header's record count makes truncation detectable: a reader
// that sees fewer (or more) records than announced errors out instead of
// silently replaying a prefix. A stream with no arrival times is written
// with every offset zero (core.Stream.Timed) and replays back to back.

// TraceMagic starts the header line of every versioned trace.
const TraceMagic = "#askt"

// TraceVersion is the current trace format version.
const TraceVersion = 2

// TraceHeader is the metadata carried by a v2 trace.
type TraceHeader struct {
	// Version is the format version (TraceVersion when writing).
	Version int `json:"version"`
	// Scenario names the generating scenario ("" for ad-hoc traces).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the generator seed the trace was recorded from.
	Seed int64 `json:"seed"`
	// Records is the number of record lines that follow the header.
	Records int64 `json:"records"`
	// Meta carries free-form generator metadata (arrival process, churn
	// model, ...), for humans and provenance — readers do not interpret it.
	Meta map[string]string `json:"meta,omitempty"`
}

// WriteTimedTrace serializes a timed stream as a v2 trace. hdr.Version and
// hdr.Records are filled in by the writer (the stream is buffered first so
// the header can announce the exact record count).
func WriteTimedTrace(w io.Writer, hdr TraceHeader, ts core.TimedStream) (int64, error) {
	tkvs := core.CollectTimed(ts)
	hdr.Version = TraceVersion
	hdr.Records = int64(len(tkvs))
	meta, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\tv%d\t%s\n", TraceMagic, TraceVersion, meta); err != nil {
		return 0, err
	}
	var last time.Duration
	for i, tkv := range tkvs {
		if strings.ContainsRune(tkv.Key, '\t') || strings.ContainsRune(tkv.Key, '\n') {
			return int64(i), fmt.Errorf("workload: key %q contains a trace delimiter", tkv.Key)
		}
		if tkv.At < last {
			return int64(i), fmt.Errorf("workload: record %d: arrival %v before predecessor %v", i, tkv.At, last)
		}
		last = tkv.At
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%d\n", tkv.At.Nanoseconds(), tkv.Key, tkv.Val); err != nil {
			return int64(i), err
		}
	}
	return int64(len(tkvs)), bw.Flush()
}

// maxTraceLine bounds one trace line; longer lines are a parse error (keys
// are capped far below this everywhere in the system).
const maxTraceLine = 1 << 20

// ReadTimedTrace parses a v2 trace. It validates the magic, version,
// record count (truncation and trailing garbage both error), and arrival
// monotonicity; it never panics on corrupt input.
func ReadTimedTrace(r io.Reader) (TraceHeader, []core.TimedKV, error) {
	br := bufio.NewReader(r)
	hdr, err := readTraceHeader(br)
	if err != nil {
		return TraceHeader{}, nil, err
	}
	tkvs, err := readTimedRecords(br, hdr)
	return hdr, tkvs, err
}

// readTraceHeader parses and validates the v2 header line.
func readTraceHeader(br *bufio.Reader) (TraceHeader, error) {
	line, err := readLine(br, 1)
	if err != nil {
		return TraceHeader{}, err
	}
	parts := strings.SplitN(line, "\t", 3)
	if len(parts) != 3 || parts[0] != TraceMagic {
		return TraceHeader{}, fmt.Errorf("workload: line 1: not a versioned trace header")
	}
	if parts[1] != fmt.Sprintf("v%d", TraceVersion) {
		return TraceHeader{}, fmt.Errorf("workload: line 1: unsupported trace version %q (have v%d)", parts[1], TraceVersion)
	}
	var hdr TraceHeader
	dec := json.NewDecoder(strings.NewReader(parts[2]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return TraceHeader{}, fmt.Errorf("workload: line 1: bad trace metadata: %w", err)
	}
	if hdr.Version != TraceVersion {
		return TraceHeader{}, fmt.Errorf("workload: line 1: metadata version %d does not match tag v%d", hdr.Version, TraceVersion)
	}
	if hdr.Records < 0 {
		return TraceHeader{}, fmt.Errorf("workload: line 1: negative record count %d", hdr.Records)
	}
	return hdr, nil
}

// readTimedRecords parses exactly hdr.Records record lines.
func readTimedRecords(br *bufio.Reader, hdr TraceHeader) ([]core.TimedKV, error) {
	out := make([]core.TimedKV, 0, min(hdr.Records, 1<<20))
	var last time.Duration
	for i := int64(0); i < hdr.Records; i++ {
		lineNo := int(i) + 2 // 1-based; header is line 1
		line, err := readLine(br, lineNo)
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("workload: truncated trace: %d of %d records (line %d)", i, hdr.Records, lineNo)
		}
		if err != nil {
			return nil, err
		}
		at := strings.IndexByte(line, '\t')
		if at < 0 {
			return nil, fmt.Errorf("workload: line %d: no arrival-time field", lineNo)
		}
		ns, err := strconv.ParseInt(line[:at], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad arrival time: %w", lineNo, err)
		}
		if ns < 0 {
			return nil, fmt.Errorf("workload: line %d: negative arrival time %d", lineNo, ns)
		}
		rest := line[at+1:]
		tab := strings.LastIndexByte(rest, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("workload: line %d: no key/value separator", lineNo)
		}
		val, err := strconv.ParseInt(rest[tab+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad value: %w", lineNo, err)
		}
		arr := time.Duration(ns)
		if arr < last {
			return nil, fmt.Errorf("workload: line %d: arrival %v before predecessor %v", lineNo, arr, last)
		}
		last = arr
		out = append(out, core.TimedKV{KV: core.KV{Key: rest[:tab], Val: val}, At: arr})
	}
	// Anything after the announced records is corruption, not slack.
	if extra, err := readLine(br, int(hdr.Records)+2); err == nil {
		return nil, fmt.Errorf("workload: line %d: %d record(s) announced but more data follows (%q...)",
			int(hdr.Records)+2, hdr.Records, clip(extra, 32))
	} else if !errors.Is(err, io.EOF) {
		return nil, err
	}
	return out, nil
}

// SplitTimedRoundRobin deals a timed trace to n senders, preserving
// per-sender order (and therefore per-sender arrival monotonicity). Each
// sender's share is sized once, to the ⌈len/n⌉ it can receive; a sender that
// receives nothing keeps a nil share.
func SplitTimedRoundRobin(tkvs []core.TimedKV, n int) [][]core.TimedKV {
	out := make([][]core.TimedKV, n)
	for i, tkv := range tkvs {
		if out[i%n] == nil {
			out[i%n] = make([]core.TimedKV, 0, (len(tkvs)+n-1)/n)
		}
		out[i%n] = append(out[i%n], tkv)
	}
	return out
}

// readLine reads one \n-terminated line (the final line may omit the
// terminator), bounding its length; io.EOF means no more lines.
func readLine(br *bufio.Reader, lineNo int) (string, error) {
	line, err := br.ReadString('\n')
	if errors.Is(err, io.EOF) {
		if line == "" {
			return "", io.EOF
		}
		err = nil
	}
	if err != nil {
		return "", fmt.Errorf("workload: line %d: %w", lineNo, err)
	}
	if len(line) > maxTraceLine {
		return "", fmt.Errorf("workload: line %d: exceeds %d bytes", lineNo, maxTraceLine)
	}
	return strings.TrimSuffix(line, "\n"), nil
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
