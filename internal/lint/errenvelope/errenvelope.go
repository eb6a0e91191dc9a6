// Package errenvelope enforces PR 7's uniform error-envelope contract
// inside the serve package: every error response is rendered by the
// envelope helper as {"error":{"code","message"}} with a code from the
// registered set, and nothing writes error statuses or bodies around it.
//
// Concretely, in any package named "serve":
//
//   - calls to net/http.Error are flagged (they emit a text/plain body that
//     bypasses the envelope);
//   - WriteHeader with a constant 4xx/5xx status is flagged outside
//     functions annotated //smore:envelope-helper;
//   - errorEnvelope / errorBody composite literals are flagged outside the
//     annotated helper — handlers return errors, they do not render them;
//   - the code field of every httpError literal must be a constant found in
//     the package's exported ErrorCodes table (non-constant codes, like
//     bundleErrCode's errors.Is dispatch, are resolved at their const sources
//     by the completeness rule instead);
//   - every package-level string constant named code* must be registered in
//     ErrorCodes — adding a code without registering it is a contract break;
//   - discarding a response-write error with `_ = ...Encode(...)` or
//     `_ = ...Write(...)` is flagged unless the site carries a
//     //smorevet:allow errenvelope suppression with a rationale; the
//     envelope helper's own best-effort encode is the one sanctioned site.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"go-arxiv/smore/internal/lint/analysis"
	"go-arxiv/smore/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: "require serve errors to flow through the envelope helper with " +
		"registered machine codes; no http.Error, bare 4xx/5xx WriteHeader, " +
		"or silently-discarded response writes",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "serve" {
		return nil, nil
	}
	sup := lintutil.NewSuppressor(pass.Fset, pass.Files)
	registered, tablePos := errorCodesTable(pass)
	if registered == nil {
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"package serve has no exported ErrorCodes table; errenvelope cannot verify code registration")
		}
		return nil, nil
	}
	checkRegistrationCompleteness(pass, sup, registered, tablePos)
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, sup, fn, registered)
		}
	}
	return nil, nil
}

// errorCodesTable resolves the package's `var ErrorCodes = []string{...}`
// into the set of registered code strings, using go/types to evaluate each
// element to its constant value.
func errorCodesTable(pass *analysis.Pass) (map[string]bool, token.Pos) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "ErrorCodes" || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						return nil, token.NoPos
					}
					set := map[string]bool{}
					for _, elt := range lit.Elts {
						tv, ok := pass.TypesInfo.Types[elt]
						if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
							pass.Reportf(elt.Pos(),
								"ErrorCodes entry is not a string constant; the table must enumerate the code consts")
							continue
						}
						set[constant.StringVal(tv.Value)] = true
					}
					return set, name.Pos()
				}
			}
		}
	}
	return nil, token.NoPos
}

// checkRegistrationCompleteness flags package-level string consts named
// code* that are missing from ErrorCodes.
func checkRegistrationCompleteness(pass *analysis.Pass, sup *lintutil.Suppressor, registered map[string]bool, tablePos token.Pos) {
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					// The naming convention: unexported string consts
					// codeXxx are envelope codes.
					if len(name.Name) <= 4 || name.Name[:4] != "code" ||
						name.Name[4] < 'A' || name.Name[4] > 'Z' {
						continue
					}
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || c.Val() == nil || c.Val().Kind() != constant.String {
						continue
					}
					if !registered[constant.StringVal(c.Val())] {
						lintutil.Reportf(pass, sup, name.Pos(),
							"error code const %s (%q) is not registered in ErrorCodes (line %d); every envelope code must be in the table",
							name.Name, constant.StringVal(c.Val()), pass.Fset.Position(tablePos).Line)
					}
				}
			}
		}
	}
}

func checkFunc(pass *analysis.Pass, sup *lintutil.Suppressor, fn *ast.FuncDecl, registered map[string]bool) {
	isHelper := lintutil.HasAnnotation(fn, lintutil.MarkerEnvelopeHelper)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, sup, n, isHelper)
		case *ast.CompositeLit:
			checkLit(pass, sup, n, isHelper, registered)
		case *ast.AssignStmt:
			checkDiscard(pass, sup, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, sup *lintutil.Suppressor, call *ast.CallExpr, isHelper bool) {
	f := lintutil.CalleeFunc(pass.TypesInfo, call)
	if f == nil {
		return
	}
	if lintutil.FuncPkgPath(f) == "net/http" && f.Name() == "Error" && lintutil.ReceiverNamed(f) == nil {
		lintutil.Reportf(pass, sup, call.Pos(),
			"http.Error bypasses the error envelope; return an *httpError and let the envelope helper render it")
		return
	}
	if f.Name() == "WriteHeader" && !isHelper && len(call.Args) == 1 {
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return
		}
		if status, ok := constant.Int64Val(tv.Value); ok && status >= 400 {
			lintutil.Reportf(pass, sup, call.Pos(),
				"bare WriteHeader(%d) outside the envelope helper; error statuses must be rendered with the envelope body", status)
		}
	}
}

func checkLit(pass *analysis.Pass, sup *lintutil.Suppressor, lit *ast.CompositeLit, isHelper bool, registered map[string]bool) {
	named := lintutil.NamedOf(pass.TypesInfo.TypeOf(lit))
	if named == nil || named.Obj().Pkg() != pass.Pkg {
		return
	}
	switch named.Obj().Name() {
	case "errorEnvelope", "errorBody":
		if !isHelper {
			lintutil.Reportf(pass, sup, lit.Pos(),
				"%s constructed outside the //smore:envelope-helper function; handlers return errors, only the helper renders them", named.Obj().Name())
		}
	case "httpError":
		code := codeFieldExpr(lit)
		if code == nil {
			return
		}
		tv, ok := pass.TypesInfo.Types[code]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return // variable code: its const sources are checked by the completeness rule
		}
		if v := constant.StringVal(tv.Value); !registered[v] {
			lintutil.Reportf(pass, sup, code.Pos(),
				"httpError code %q is not registered in ErrorCodes; add it to the table (codes are API contract)", v)
		}
	}
}

// codeFieldExpr extracts the code field from an httpError literal, whether
// written positionally ({status, code, msg}) or with field names.
func codeFieldExpr(lit *ast.CompositeLit) ast.Expr {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "code" {
				return kv.Value
			}
			continue
		}
		if i == 1 {
			return elt
		}
	}
	return nil
}

// checkDiscard flags `_ = ...Encode(...)` / `_ = ...Write(...)` — a
// response write whose error is thrown away. The envelope helper's
// best-effort encode carries a //smorevet:allow errenvelope rationale and is
// the one sanctioned site.
func checkDiscard(pass *analysis.Pass, sup *lintutil.Suppressor, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN {
		return
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	for _, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		f := lintutil.CalleeFunc(pass.TypesInfo, call)
		if f == nil {
			continue
		}
		switch f.Name() {
		case "Encode", "Write", "WriteString", "Flush":
			lintutil.Reportf(pass, sup, as.Pos(),
				"response-write error from %s discarded; count it in metrics or mark the one sanctioned site with //smorevet:allow errenvelope -- <reason>", f.FullName())
		}
	}
}
