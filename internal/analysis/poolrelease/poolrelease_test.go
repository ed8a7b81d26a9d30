package poolrelease_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolrelease"
)

func TestPoolRelease(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"hostd", "other", "switchd"}, poolrelease.Analyzer)
}
