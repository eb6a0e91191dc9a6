// self_test is the repo's smorevet driver: it runs all four analyzers over
// every production package, so `go test ./...` and `make vet-smore` fail
// when a change breaks a concurrency, hot-path, or error-envelope
// invariant. Each analyzer is a subtest; narrow a run to one with
// `go test -run 'TestRepoSatisfiesInvariants/hotpath' ./internal/lint`.
package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"go-arxiv/smore/internal/lint/analysis"
	"go-arxiv/smore/internal/lint/atomicsnap"
	"go-arxiv/smore/internal/lint/errenvelope"
	"go-arxiv/smore/internal/lint/hotpath"
	"go-arxiv/smore/internal/lint/load"
	"go-arxiv/smore/internal/lint/lockdiscipline"
)

var analyzers = []*analysis.Analyzer{
	lockdiscipline.Analyzer,
	hotpath.Analyzer,
	errenvelope.Analyzer,
	atomicsnap.Analyzer,
}

func TestRepoSatisfiesInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole repo via go list -export; skipped in -short")
	}
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, a := range analyzers {
		t.Run(a.Name, func(t *testing.T) {
			for _, f := range findings(t, a, pkgs) {
				t.Error(f)
			}
		})
	}
}

// TestRepoDriverReportsFindings shows the repo scan can fail: on
// testdata/violation, which `./...` skips, it reports exactly the one
// lockdiscipline finding the fixture plants.
func TestRepoDriverReportsFindings(t *testing.T) {
	pkgs, err := load.Packages(".", "./testdata/violation")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	for _, a := range analyzers {
		for _, f := range findings(t, a, pkgs) {
			got = append(got, a.Name+": "+f)
		}
	}
	file, err := filepath.Abs(filepath.Join("testdata", "violation", "violation.go"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	before, _, ok := strings.Cut(string(src), "os.ReadFile(")
	if !ok {
		t.Fatal("fixture has no os.ReadFile call")
	}
	at := fmt.Sprintf("lockdiscipline: %s:%d:", file, strings.Count(before, "\n")+1)
	if len(got) != 1 || !strings.HasPrefix(got[0], at) {
		t.Fatalf("findings = %q, want exactly one starting %q", got, at)
	}
}

// findings runs a over pkgs and returns each diagnostic as
// "file:line:col: message". An analyzer error fails the test.
func findings(t *testing.T, a *analysis.Analyzer, pkgs []*load.Package) []string {
	t.Helper()
	var out []string
	for _, p := range pkgs {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.Info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, fmt.Sprintf("%s: %s", p.Fset.Position(d.Pos), d.Message))
			},
		}
		if _, err := a.Run(pass); err != nil {
			t.Errorf("%s on %s: %v", a.Name, p.ImportPath, err)
		}
	}
	return out
}
