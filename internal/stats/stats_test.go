package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestGbps(t *testing.T) {
	// 125 MB in 10 ms = 100 Gbps.
	if got := Gbps(125_000_000, 10*time.Millisecond); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Gbps = %v", got)
	}
	if Gbps(1, 0) != 0 {
		t.Fatal("a zero-duration rate should be 0")
	}
}

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0.5); got != 50 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := c.Mean(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
	if got := c.At(50); got != 0.5 {
		t.Fatalf("At(50) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(200); got != 1 {
		t.Fatalf("At(200) = %v", got)
	}
}

func TestCDFAddN(t *testing.T) {
	var c CDF
	c.AddN(3, 5)
	c.AddN(7, 5)
	if len(c.samples) != 10 {
		t.Fatalf("%d samples, want 10", len(c.samples))
	}
	if got := c.Mean(); got != 5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestEmptyCDF(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if c.Mean() != 0 || c.At(1) != 0 {
		t.Fatal("empty mean/At should be 0")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		Title:  "Fig. X",
		Note:   "a note",
		Header: []string{"name", "value", "time"},
	}
	tb.AddRow("alpha", 3.14159, 1500*time.Millisecond)
	tb.AddRow("beta-long-name", 12345.6, time.Millisecond/2)
	tb.AddRow("tiny", 0.0001, time.Second)
	s := tb.String()
	for _, want := range []string{"Fig. X", "a note", "alpha", "3.14", "12346", "1.5s", "beta-long-name", "1.00e-04"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: header and separator lines have equal length.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", s)
	}
}
