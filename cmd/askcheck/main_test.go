package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

var fixturePatterns = []string{"./testdata/src/hostd", "./testdata/src/toy"}

// TestAnalyzeGolden pins the exact driver output over the fixture tree —
// file, position, analyzer, and message for every diagnostic, in order.
// Regenerate with: ASKCHECK_UPDATE_GOLDEN=1 go test ./cmd/askcheck -run TestAnalyzeGolden
func TestAnalyzeGolden(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyze(cwd, fixturePatterns, all)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := res.writeText(&text, cwd); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden.txt"), text.String())
}

var update = os.Getenv("ASKCHECK_UPDATE_GOLDEN") != ""

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (set ASKCHECK_UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
