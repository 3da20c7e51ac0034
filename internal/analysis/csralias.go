package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CSRAlias enforces the CSR aliasing contract of internal/graph
// (DESIGN.md §12). Slices obtained from accessors documented as aliasing —
// graph.Comm.Edges, and the merge-side nbr/nvol row caches built from it —
// are windows into the graph's immutable rowPtr/colIdx/vol arrays, shared
// by every holder of the graph. Mutating through such a slice (an element
// store, append, copy-into, or an in-place sort) silently corrupts the
// graph for every holder, including concurrent solves sharing it, and
// breaks the byte-identical guarantees (TestGraphBuildDigest,
// TestDefaultBarByteIdentical); storing one into a field, map, or slice
// element extends the alias's lifetime beyond the local scope and is
// reported too, so each long-lived alias is a documented decision
// (rahtm:allow with justification).
//
// The approximation is a conservative intra-procedural taint walk: calls
// to aliasing sources taint their results, plain assignments and
// reslicings propagate taint between locals (iterated to a fixpoint, so
// declaration order does not matter), and the four mutating shapes above
// are reported on tainted values. The walk does not follow taint through
// function calls, returns, or composite literals — a slice laundered
// through a helper escapes the analysis (see DESIGN.md §14 for the blind
// spots). The clean idiom is to copy before mutating:
//
//	ds, vs := g.Edges(s)
//	own := append([]float64(nil), vs...) // fresh backing array
//	sort.Float64s(own)                   // fine
var CSRAlias = &Analyzer{
	Name:   "csralias",
	Doc:    "writes, appends, sorts, or escaping stores through slices aliasing frozen CSR graph rows",
	Filter: IsInternalPkg,
	Run:    runCSRAlias,
}

func runCSRAlias(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkCSRAlias(pass, fd.Body)
			return true
		})
	}
	return nil
}

// isAliasSource reports whether e is a direct aliasing source: a call to
// graph.Comm.Edges, or an index into an nbr/nvol row-cache field (the
// [][]int32 / [][]float64 merge caches whose rows alias CSR rows).
func isAliasSource(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Name() != "Edges" {
			return false
		}
		recv := receiverNamed(fn)
		return recv != nil && recv.Obj().Name() == "Comm" &&
			recv.Obj().Pkg() != nil && strings.HasSuffix(recv.Obj().Pkg().Path(), "internal/graph")
	case *ast.IndexExpr:
		sel, ok := e.X.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "nbr" && sel.Sel.Name != "nvol") {
			return false
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil {
			return false
		}
		if _, isField := obj.(*types.Var); !isField {
			return false
		}
		s := obj.Type().String()
		return s == "[][]int32" || s == "[][]float64"
	}
	return false
}

// checkCSRAlias taints locals that hold aliasing slices and reports the
// mutating and escaping uses within one function body.
func checkCSRAlias(pass *Pass, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}

	// exprTainted reports whether e evaluates to an aliasing slice given
	// the current taint set: a direct source, a tainted local, or a
	// reslicing of either.
	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return exprTainted(e.X)
		case *ast.SliceExpr:
			return exprTainted(e.X)
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil && tainted[obj] {
				return true
			}
			if obj := pass.TypesInfo.Defs[e]; obj != nil && tainted[obj] {
				return true
			}
			return false
		default:
			return isAliasSource(pass, e)
		}
	}
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[id]
	}

	// Fixpoint taint propagation over assignments: `a, b := g.Edges(s)`,
	// `c := a`, `d := a[1:]` all taint their left-hand locals.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(e ast.Expr) {
				if obj := lhsObj(e); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
				// Multi-assign from one call: Edges taints every result.
				if isAliasSource(pass, as.Rhs[0]) {
					for _, l := range as.Lhs {
						mark(l)
					}
				}
				return true
			}
			for i, r := range as.Rhs {
				if i < len(as.Lhs) && exprTainted(r) {
					mark(as.Lhs[i])
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				// ds[i] = v, ds[i] += v: element write through the alias.
				if ix, ok := l.(*ast.IndexExpr); ok && exprTainted(ix.X) {
					pass.Reportf(ix.Pos(), "write through a slice aliasing frozen CSR rows mutates the shared graph; copy the row first (append([]T(nil), s...))")
				}
			}
			// field/element = tainted: the alias escapes the local scope.
			rhsSource := len(n.Lhs) > 1 && len(n.Rhs) == 1 && isAliasSource(pass, n.Rhs[0])
			for i, l := range n.Lhs {
				escapes := false
				switch l.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escapes = true
				}
				if !escapes {
					continue
				}
				if rhsSource || (i < len(n.Rhs) && exprTainted(n.Rhs[i])) {
					pass.Reportf(l.Pos(), "storing a CSR-aliasing slice into a field or element extends the alias beyond this scope; copy it, or justify the shared lifetime with a rahtm:allow")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && exprTainted(ix.X) {
				pass.Reportf(ix.Pos(), "write through a slice aliasing frozen CSR rows mutates the shared graph; copy the row first (append([]T(nil), s...))")
			}
		case *ast.CallExpr:
			if isBuiltinCall(pass, n, "append") && len(n.Args) > 0 && exprTainted(n.Args[0]) {
				pass.Reportf(n.Pos(), "append to a slice aliasing frozen CSR rows may write into the shared graph when capacity allows; copy the row first")
				return true
			}
			if isBuiltinCall(pass, n, "copy") && len(n.Args) > 0 && exprTainted(n.Args[0]) {
				pass.Reportf(n.Pos(), "copy into a slice aliasing frozen CSR rows mutates the shared graph; copy the row into an owned slice instead")
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pkgID, ok := sel.X.(*ast.Ident); ok {
					if pn, isPkg := pass.TypesInfo.Uses[pkgID].(*types.PkgName); isPkg {
						p := pn.Imported().Path()
						if p == "sort" || p == "slices" {
							for _, arg := range n.Args {
								if exprTainted(arg) {
									pass.Reportf(n.Pos(), "%s.%s sorts in place through a slice aliasing frozen CSR rows; sort an owned copy", p, sel.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
		return true
	})
}
