package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineJoin enforces the structured-concurrency discipline of the
// concurrent packages (serve, milp, core, merge, sched): every goroutine
// must be stoppable and awaited. A daemon worker or speculative solver
// that is neither cancellable (no context/done channel in sight) nor
// joined (no WaitGroup tracking) can outlive its request — or the whole
// Server — still holding solver state, which is exactly the leak class the
// Shutdown-drain and TestParallelMatchesSequential contracts rule out.
//
// A `go` statement passes when any of the following holds:
//
//   - the spawned function (literal body or call arguments) mentions a
//     cancellation signal — a context.Context value, an empty-struct
//     channel, or an identifier matching the ctx/done/cancel/stop naming
//     convention;
//   - the spawned literal's body calls sync.WaitGroup Done or Wait (it
//     participates in a join);
//   - the enclosing function calls sync.WaitGroup.Add before the `go`
//     statement (the spawner registered the goroutine for a join; this is
//     how `go s.worker()`-style method spawns are recognized without
//     inter-procedural analysis).
//
// Anything else is reported. The check is intra-procedural: a helper that
// spawns on behalf of a caller holding the WaitGroup must carry its own
// allow directive with the justification.
var GoroutineJoin = &Analyzer{
	Name:   "goroutinejoin",
	Doc:    "go statements whose goroutine is neither cancellable (ctx/done) nor joined (WaitGroup)",
	Filter: IsConcurrentPkg,
	Run:    runGoroutineJoin,
}

func runGoroutineJoin(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(pass, fd.Body)
		}
	}
	return nil
}

func checkGoStmts(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if mentionsCancel(pass, gs.Call) {
			return true
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok && callsWaitGroup(pass, lit.Body) {
			return true
		}
		if waitGroupAddBefore(pass, body, gs.Pos()) {
			return true
		}
		pass.Reportf(gs.Pos(), "goroutine is neither cancellable nor joined: pass a ctx/done channel, or track it with a sync.WaitGroup (Add before go, Done inside)")
		return true
	})
}

// callsWaitGroup reports whether body calls a sync.WaitGroup method
// (Done/Wait/Add) — evidence the goroutine participates in a join.
func callsWaitGroup(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isWaitGroupMethod(pass, sel) {
			found = true
			return false
		}
		return true
	})
	return found
}

// waitGroupAddBefore reports whether a sync.WaitGroup.Add call appears in
// body lexically before pos — the spawner-side half of a join.
func waitGroupAddBefore(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isWaitGroupMethod(pass, sel) && sel.Sel.Name == "Add" {
			found = true
			return false
		}
		return true
	})
	return found
}

func isWaitGroupMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := receiverNamed(fn)
	return recv != nil && recv.Obj().Pkg() != nil &&
		recv.Obj().Pkg().Path() == "sync" && recv.Obj().Name() == "WaitGroup"
}
