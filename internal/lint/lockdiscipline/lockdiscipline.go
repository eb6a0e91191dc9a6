// Package lockdiscipline flags expensive or re-entrant work performed while
// one of the repo's serving-critical mutexes is held, and locks that leak
// past a return. It mechanizes the lessons of PR 4 (encode off-lock) and
// PR 6 (no drains or marshaling inside the registry critical section).
//
// Watched mutexes are sync.Mutex/RWMutex fields of the named types
// Ensemble, registry, and Adapter (matched by type name so the testdata
// fixtures exercise the same code path as the real packages). While any of
// them is held, calls into encoding/json, net/http, the os package (file
// I/O — Create/Rename/fsync and every other syscall-latency operation; the
// PR 10 checkpoint-persist-off-lock rule), encode.Encoder encode entry
// points, or the stream.Adapter fold entry point (Close) are flagged. The
// walker is flow-sensitive over if/else branches (an unlock on an
// early-return branch is honored), treats `defer mu.Unlock()` as keeping
// the lock held for banned-call purposes while satisfying the leak check,
// and skips `go` statements and non-invoked function literals, which run
// outside the current critical section.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"go-arxiv/smore/internal/lint/analysis"
	"go-arxiv/smore/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "flag marshaling, net/http, os file-I/O, encode, or stream-fold calls made " +
		"while an Ensemble/registry/Adapter mutex is held, and locks leaked past return",
	Run: run,
}

// watchedOwners are the struct type names whose mutex fields guard serving
// state.
var watchedOwners = map[string]bool{
	"Ensemble": true,
	"registry": true,
	"Adapter":  true,
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

// bannedEncoderMethods are encode.Encoder entry points that do heavy
// per-sample work (the PR 4 encode-off-lock rule).
var bannedEncoderMethods = map[string]bool{
	"Encode": true, "EncodeBatch": true, "EncodeInto": true, "MustEncode": true,
}

// bannedAdapterMethods are stream.Adapter fold entry points that block on
// the background fold loop (the PR 6 drain-under-lock rule).
var bannedAdapterMethods = map[string]bool{"Close": true}

func run(pass *analysis.Pass) (any, error) {
	sup := lintutil.NewSuppressor(pass.Fset, pass.Files)
	c := &checker{pass: pass, sup: sup}
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.checkFunc(fn.Body)
		}
	}
	return nil, nil
}

// lockInfo records one held mutex on the current control-flow path.
type lockInfo struct {
	pos      token.Pos // the Lock() call
	name     string    // display name, e.g. "Ensemble.mu"
	deferred bool      // a defer Unlock covers function exit
}

// state maps lock keys (owner expression + field, e.g. "s.reg.mu") to info.
type state map[string]*lockInfo

func clone(st state) state {
	out := make(state, len(st))
	for k, v := range st {
		cp := *v
		out[k] = &cp
	}
	return out
}

// mergeInto unions src into dst: a lock held on either surviving path is
// conservatively treated as held afterwards.
func mergeInto(dst, src state) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			cp := *v
			dst[k] = &cp
		}
	}
}

func replace(dst, src state) {
	for k := range dst {
		delete(dst, k)
	}
	mergeInto(dst, src)
}

type checker struct {
	pass  *analysis.Pass
	sup   *lintutil.Suppressor
	queue []*ast.FuncLit // closures to analyze as independent functions
}

// checkFunc analyzes one function body with an empty lock state, then
// drains any function literals discovered inside it — each closure is its
// own lock scope (it executes later, not at its definition site).
func (c *checker) checkFunc(body *ast.BlockStmt) {
	st := state{}
	if !c.stmts(body.List, st) {
		c.checkLeak(body.Rbrace, st, "function end")
	}
	for len(c.queue) > 0 {
		fl := c.queue[0]
		c.queue = c.queue[1:]
		inner := state{}
		if !c.stmts(fl.Body.List, inner) {
			c.checkLeak(fl.Body.Rbrace, inner, "function end")
		}
	}
}

// stmts walks a statement list, returning true if the path terminates
// (return or branch) before the end.
func (c *checker) stmts(list []ast.Stmt, st state) bool {
	for _, s := range list {
		if c.stmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) stmt(s ast.Stmt, st state) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		c.expr(s.X, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, st)
		}
		c.checkLeak(s.Pos(), st, "this return")
		return true
	case *ast.BranchStmt:
		// break/continue/goto end the linear path through this list.
		return s.Tok != token.FALLTHROUGH
	case *ast.DeferStmt:
		c.deferCall(s.Call, st)
	case *ast.GoStmt:
		// The spawned goroutine runs outside this critical section; its body
		// is analyzed as an independent lock scope.
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.queue = append(c.queue, fl)
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
	case *ast.IfStmt:
		c.stmt(s.Init, st)
		c.expr(s.Cond, st)
		thenSt := clone(st)
		thenTerm := c.stmts(s.Body.List, thenSt)
		if s.Else == nil {
			if !thenTerm {
				mergeInto(st, thenSt)
			}
			return false
		}
		elseSt := clone(st)
		elseTerm := c.stmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, thenSt)
			mergeInto(st, elseSt)
		}
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.ForStmt:
		c.stmt(s.Init, st)
		if s.Cond != nil {
			c.expr(s.Cond, st)
		}
		c.stmt(s.Post, st)
		// Loop bodies are checked on a copy: zero or more iterations, so the
		// post-loop state conservatively matches the pre-loop state.
		c.stmts(s.Body.List, clone(st))
	case *ast.RangeStmt:
		c.expr(s.X, st)
		c.stmts(s.Body.List, clone(st))
	case *ast.SwitchStmt:
		c.stmt(s.Init, st)
		if s.Tag != nil {
			c.expr(s.Tag, st)
		}
		c.caseBodies(s.Body, st)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, st)
		c.stmt(s.Assign, st)
		c.caseBodies(s.Body, st)
	case *ast.SelectStmt:
		c.caseBodies(s.Body, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, st)
		}
		for _, e := range s.Lhs {
			c.expr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, st)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.SendStmt:
		c.expr(s.Chan, st)
		c.expr(s.Value, st)
	case *ast.IncDecStmt:
		c.expr(s.X, st)
	}
	return false
}

// caseBodies walks each clause of a switch/select on its own copy of the
// state; the post-statement state conservatively stays at the pre-state.
func (c *checker) caseBodies(body *ast.BlockStmt, st state) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.expr(e, st)
			}
			c.stmts(cl.Body, clone(st))
		case *ast.CommClause:
			c.stmt(cl.Comm, clone(st))
			c.stmts(cl.Body, clone(st))
		}
	}
}

// deferCall handles `defer X()`: a deferred watched Unlock marks the lock
// as released at function exit; a deferred closure is scanned for the same.
func (c *checker) deferCall(call *ast.CallExpr, st state) {
	for _, a := range call.Args {
		c.expr(a, st)
	}
	if key, _, method, ok := c.watchedMutexOp(call); ok && unlockMethods[method] {
		if info := st[key]; info != nil {
			info.deferred = true
		}
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... m.mu.Unlock() ... }(): honor unlocks, and
		// analyze the rest of the closure as its own scope.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if key, _, method, ok := c.watchedMutexOp(inner); ok && unlockMethods[method] {
					if info := st[key]; info != nil {
						info.deferred = true
					}
				}
			}
			return true
		})
		c.queue = append(c.queue, fl)
	}
}

// expr walks an expression, updating lock state for watched Lock/Unlock
// calls and flagging banned calls made while a watched lock is held.
func (c *checker) expr(e ast.Expr, st state) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.FuncLit:
		c.queue = append(c.queue, e)
	case *ast.CallExpr:
		if fl, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked closure: runs here, under the current locks.
			for _, a := range e.Args {
				c.expr(a, st)
			}
			c.stmts(fl.Body.List, st)
			return
		}
		for _, a := range e.Args {
			c.expr(a, st)
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			c.expr(sel.X, st)
		}
		c.call(e, st)
	case *ast.ParenExpr:
		c.expr(e.X, st)
	case *ast.SelectorExpr:
		c.expr(e.X, st)
	case *ast.StarExpr:
		c.expr(e.X, st)
	case *ast.UnaryExpr:
		c.expr(e.X, st)
	case *ast.BinaryExpr:
		c.expr(e.X, st)
		c.expr(e.Y, st)
	case *ast.IndexExpr:
		c.expr(e.X, st)
		c.expr(e.Index, st)
	case *ast.IndexListExpr:
		c.expr(e.X, st)
	case *ast.SliceExpr:
		c.expr(e.X, st)
		c.expr(e.Low, st)
		c.expr(e.High, st)
		c.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		c.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			c.expr(el, st)
		}
	case *ast.KeyValueExpr:
		c.expr(e.Key, st)
		c.expr(e.Value, st)
	}
}

// call applies one resolved call to the lock state: Lock/Unlock transitions
// for watched mutexes, banned-callee reports otherwise.
func (c *checker) call(call *ast.CallExpr, st state) {
	if key, name, method, ok := c.watchedMutexOp(call); ok {
		switch {
		case lockMethods[method]:
			st[key] = &lockInfo{pos: call.Pos(), name: name}
		case unlockMethods[method]:
			delete(st, key)
		}
		return
	}
	if len(st) == 0 {
		return
	}
	c.checkBanned(call, st)
}

// watchedMutexOp matches `<owner-expr>.<field>.<Lock|Unlock|RLock|RUnlock>()`
// where field is a sync.Mutex/RWMutex and the owner's named type is in the
// watched set. It returns a path-identity key, a display name, and the
// method name.
func (c *checker) watchedMutexOp(call *ast.CallExpr) (key, name, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	method = sel.Sel.Name
	if !lockMethods[method] && !unlockMethods[method] {
		return "", "", "", false
	}
	field, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	mt := lintutil.NamedOf(c.pass.TypesInfo.TypeOf(field))
	if mt == nil || mt.Obj().Pkg() == nil ||
		mt.Obj().Pkg().Path() != "sync" ||
		(mt.Obj().Name() != "Mutex" && mt.Obj().Name() != "RWMutex") {
		return "", "", "", false
	}
	owner := lintutil.NamedOf(c.pass.TypesInfo.TypeOf(field.X))
	if owner == nil || !watchedOwners[owner.Obj().Name()] {
		return "", "", "", false
	}
	key = types.ExprString(field.X) + "." + field.Sel.Name
	name = owner.Obj().Name() + "." + field.Sel.Name
	return key, name, method, true
}

// checkBanned reports call if its callee is in the banned set while any
// watched lock is held.
func (c *checker) checkBanned(call *ast.CallExpr, st state) {
	f := lintutil.CalleeFunc(c.pass.TypesInfo, call)
	if f == nil {
		return
	}
	var what string
	switch lintutil.FuncPkgPath(f) {
	case "encoding/json":
		what = "encoding/json call " + f.FullName()
	case "net/http":
		what = "net/http call " + f.FullName()
	case "os":
		// Covers both package functions (os.Rename, os.CreateTemp) and
		// *os.File methods (Write, Sync): checkpoint persistence and any
		// other file I/O must happen outside serving critical sections.
		what = "os file-I/O call " + f.FullName()
	default:
		recv := lintutil.ReceiverNamed(f)
		if recv == nil || recv.Obj().Pkg() == nil {
			return
		}
		switch {
		case recv.Obj().Name() == "Encoder" && recv.Obj().Pkg().Name() == "encode" &&
			bannedEncoderMethods[f.Name()]:
			what = "encode entry point " + f.FullName()
		case recv.Obj().Name() == "Adapter" && recv.Obj().Pkg().Name() == "stream" &&
			bannedAdapterMethods[f.Name()]:
			what = "stream fold entry point " + f.FullName()
		default:
			return
		}
	}
	lintutil.Reportf(c.pass, c.sup, call.Pos(),
		"%s while %s is held (locked at line %d); move it outside the critical section",
		what, c.heldNames(st), c.firstLockLine(st))
}

func (c *checker) heldNames(st state) string {
	names := make([]string, 0, len(st))
	for _, info := range st {
		names = append(names, info.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func (c *checker) firstLockLine(st state) int {
	line := 0
	for _, info := range st {
		l := c.pass.Fset.Position(info.pos).Line
		if line == 0 || l < line {
			line = l
		}
	}
	return line
}

// checkLeak reports watched locks still held, with no deferred unlock, at a
// return statement or at the end of the function body.
func (c *checker) checkLeak(pos token.Pos, st state, where string) {
	for _, info := range st {
		if info.deferred {
			continue
		}
		lintutil.Reportf(c.pass, c.sup, pos,
			"%s locked at line %d is still held at %s; add Unlock or defer Unlock",
			info.name, c.pass.Fset.Position(info.pos).Line, where)
	}
}
