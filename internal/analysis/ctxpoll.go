package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CtxPoll enforces the PR 1 cancellation contract in two parts.
//
// Everywhere under internal/, it flags context.Background() and
// context.TODO(): library code must accept the caller's context. Every
// long-running internal entry point takes one and has no context-free
// twin, so internal code has no reason to mint a root; a root that is
// still wanted must carry //rahtm:allow(ctxpoll): with its justification.
//
// In the solver packages (lp, milp, hiermap, merge), any function that
// receives a cancellation signal (a context.Context or a done/cancel
// chan struct{}) must consult it from every solve loop — a `for` whose
// trip count is not fixed by the input data: infinite (`for {}`),
// while-style (`for converging`), or bounded by an iteration budget
// (maxIters, sweeps, restarts). Such a loop with real work in its body
// has to mention the context, a done channel, or a poll/deadline helper,
// so cancellation is observed within bounded iterations. Data-bounded
// setup loops (`for i := 0; i < n; i++`, `range xs`) finish on their own
// and are not required to poll.
var CtxPoll = &Analyzer{
	Name:   "ctxpoll",
	Doc:    "solver loops must poll ctx cancellation; no context.Background in internal code",
	Filter: IsInternalPkg,
	Run:    runCtxPoll,
}

// cancelNameRe matches identifiers conventionally tied to cancellation:
// ctx, done channels, checkDeadline-style helpers, stop flags.
var cancelNameRe = regexp.MustCompile(`(?i)ctx|done|cancel|deadline|abort|stop`)

// budgetNameRe matches loop bounds that are iteration budgets — tuning
// knobs rather than data sizes — whose loops must therefore poll.
var budgetNameRe = regexp.MustCompile(`(?i)iter|sweep|round|restart|epoch|budget|trial|attempt|retries`)

func runCtxPoll(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					pass.Reportf(sel.Pos(), "context.%s() in internal code: accept the caller's ctx (a deliberate root needs a rahtm:allow with justification)", fn.Name())
				}
			}
			return true
		})
	}
	if !IsSolverPkg(pass.PkgPath()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCancelParam(pass, fd) {
				continue
			}
			checkLoopsPoll(pass, fd.Body)
		}
	}
	return nil
}

// hasCancelParam reports whether fd receives a cancellation signal: a
// context.Context or a chan struct{} parameter.
func hasCancelParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isCancelType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isCancelType(t types.Type) bool {
	if t == nil {
		return false
	}
	if t.String() == "context.Context" {
		return true
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// checkLoopsPoll reports every solve loop under body whose own body never
// consults a cancellation signal.
func checkLoopsPoll(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if needsPoll(fs) && heavyLoop(pass, fs.Body) && !mentionsCancel(pass, fs.Body) {
			pass.Reportf(fs.Pos(), "solve loop never polls cancellation; check ctx.Err()/select on the done channel within bounded iterations")
		}
		return true
	})
}

// needsPoll reports whether the loop's trip count is a tuning knob rather
// than a data size: infinite, while-style, or budget-bounded.
func needsPoll(fs *ast.ForStmt) bool {
	if fs.Cond == nil {
		return true // for {}
	}
	if fs.Init == nil && fs.Post == nil {
		return true // for cond {} — convergence loop
	}
	return budgetNameRe.MatchString(types.ExprString(fs.Cond))
}

// heavyLoop reports whether the body performs real calls or nested loops
// — work that can accumulate unbounded latency between polls.
func heavyLoop(pass *Pass, body *ast.BlockStmt) bool {
	heavy := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			heavy = true
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
					return true
				}
			}
			heavy = true
		}
		return !heavy
	})
	return heavy
}

// mentionsCancel reports whether the subtree references anything
// cancellation-shaped: a context value, an empty-struct channel, or an
// identifier matching the ctx/done/cancel/deadline naming convention.
func mentionsCancel(pass *Pass, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if cancelNameRe.MatchString(id.Name) {
			found = true
			return false
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && isCancelType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}
