package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// WriteTSV serializes a stream as one "key<TAB>value" line per tuple — the
// trace format cmd/askgen emits and cmd/asksim replays.
func WriteTSV(w io.Writer, s core.Stream) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for {
		kv, ok := s()
		if !ok {
			break
		}
		if strings.ContainsRune(kv.Key, '\t') || strings.ContainsRune(kv.Key, '\n') {
			return n, fmt.Errorf("workload: key %q contains a TSV delimiter", kv.Key)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\n", kv.Key, kv.Val); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// maxTSVLine bounds one v1 trace line (key + value); a longer line is a
// parse error, reported with its line number rather than truncated.
const maxTSVLine = 1 << 20

// ReadTSV parses a trace written by WriteTSV. Parse and scan errors carry
// the 1-based line number of the offending line; an over-long line is
// reported explicitly (bufio.Scanner's ErrTooLong, which would otherwise
// surface as a bare "token too long" with no location).
func ReadTSV(r io.Reader) ([]core.KV, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTSVLine)
	var out []core.KV
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		tab := strings.LastIndexByte(text, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("workload: line %d: no tab separator", line)
		}
		val, err := strconv.ParseInt(text[tab+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad value: %w", line, err)
		}
		out = append(out, core.KV{Key: text[:tab], Val: val})
	}
	if err := sc.Err(); err != nil {
		// The failed read is the line after the last delivered token.
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("workload: line %d: exceeds %d bytes: %w", line+1, maxTSVLine, err)
		}
		return nil, fmt.Errorf("workload: line %d: %w", line+1, err)
	}
	return out, nil
}
