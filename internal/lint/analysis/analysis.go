// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check, a Pass
// hands it one type-checked package, and Report emits diagnostics. The repo
// vendors nothing, so the four smorevet analyzers build against this
// stdlib-only core; if golang.org/x/tools ever lands in the module, the
// analyzers port by swapping this import — the field and method names match
// deliberately.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppression comments
	// (//smorevet:allow <name>), and the repo driver's per-analyzer subtests
	// (go test -run 'TestRepoSatisfiesInvariants/<name>' ./internal/lint).
	Name string

	// Doc is the analyzer's documentation: first line summary, then detail.
	Doc string

	// Run applies the check to one package and reports findings through
	// pass.Report. The result value is unused by this driver (kept for API
	// parity) — return nil.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between the driver and one Analyzer.Run application:
// a single type-checked package plus a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's syntax, parsed with comments
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo allocates a types.Info with every map the analyzers consult.
// Both drivers (the repo scan through load, and analysistest) must use it
// so an analyzer never finds a nil map in one driver that was populated in
// the other.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Instances:    make(map[*ast.Ident]types.Instance),
		Scopes:       make(map[ast.Node]*types.Scope),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		FileVersions: make(map[*ast.File]string),
	}
}
