// Package analysistest runs framework analyzers over testdata packages and
// checks their diagnostics against `// want` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Expectations are written on the line the diagnostic is reported on:
//
//	_ = time.Now() // want `simdeterminism: time\.Now`
//
// Each back-quoted (or double-quoted) string is a regular expression that
// must match the message of exactly one diagnostic on that line, prefixed
// with its analyzer name as "name: message". Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/analysis/framework"
)

var wantRE = regexp.MustCompile("// want((?: +(?:`[^`]*`|\"[^\"]*\"))+)")
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads each package directory under testdata/src and applies the
// analyzers, comparing diagnostics to // want comments.
func Run(t *testing.T, testdata string, pkgs []string, analyzers ...*framework.Analyzer) {
	t.Helper()
	loader, err := framework.NewLoader(testdata)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, name := range pkgs {
		dir := filepath.Join(testdata, "src", name)
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Errorf("analysistest: loading %s: %v", dir, err)
			continue
		}
		diags, err := framework.RunAnalyzers(pkg, analyzers...)
		if err != nil {
			t.Errorf("analysistest: %v", err)
			continue
		}
		checkPackage(t, pkg, diags)
	}
}

func checkPackage(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	expects := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		full := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		if !claim(expects, pos, full) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, full)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.re)
		}
	}
}

func claim(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if !e.hit && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(msg) {
			e.hit = true
			return true
		}
	}
	return false
}

func collectWants(t *testing.T, pkg *framework.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					src := arg[1]
					if src == "" {
						src = arg[2]
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, src, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}
