// Package releaseorder protects the journaled-before-release contract.
//
// A client-visible outcome (a //skueue:client-outcome frame carrying a
// result) must not reach a //skueue:client-release function unless the
// member's durable storage has made the outcome durable first — the
// PR 4/5 rule that a confirmed result survives a crash. A release is
// accepted when one of these holds:
//
//   - the enclosing function is //skueue:journaled-release (it builds or
//     is a parked release, which runs only after the covering fsync — or
//     at once on a member with no stable storage, where the storage seam
//     itself runs releases inline);
//   - the frame is an error notification: a composite literal that sets
//     none of the outcome type's result-bearing fields (fields marked
//     //skueue:client-outcome themselves) — failures are not outcomes.
//
// Everything else is reported. There is no journal-disabled escape
// hatch: whether anything has to be waited for is the storage seam's
// business, not the call site's.
package releaseorder

import (
	"go/ast"
	"go/types"

	"skueue/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "releaseorder",
	Doc:  "client outcomes are released only through the journal's parked releases",
	Run:  run,
}

func run(pass *analysis.Pass) {
	outcomeTypes := make(map[*types.TypeName]bool)
	resultFields := make(map[*types.Var]bool)
	for _, pkg := range pass.Prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || pass.Ann.Type(tn, "client-outcome") == nil {
				continue
			}
			outcomeTypes[tn] = true
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if pass.Ann.Field(st.Field(i), "client-outcome") != nil {
						resultFields[st.Field(i)] = true
					}
				}
			}
		}
	}
	if len(outcomeTypes) == 0 {
		return
	}

	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				journaled := false
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					journaled = pass.Ann.Func(fn, "journaled-release") != nil
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := analysis.Callee(pkg.Info, call)
					if callee == nil || pass.Ann.Func(callee, "client-release") == nil {
						return true
					}
					arg := outcomeArg(pkg.Info, call, outcomeTypes)
					if arg == nil {
						return true
					}
					if journaled {
						return true
					}
					if isErrorShape(pkg.Info, arg, resultFields) {
						return true
					}
					pass.Reportf(call.Pos(),
						"client outcome released without a dominating journal stage: park it via the journal's release queue")
					return true
				})
			}
		}
	}
}

// outcomeArg returns the first call argument whose static type is a
// client-outcome frame, or nil.
func outcomeArg(info *types.Info, call *ast.CallExpr, outcomes map[*types.TypeName]bool) ast.Expr {
	for _, arg := range call.Args {
		tv, ok := info.Types[arg]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && outcomes[named.Obj()] {
			return arg
		}
	}
	return nil
}

// isErrorShape reports whether the argument is a composite literal that
// sets no result-bearing field: a failure notification, not an outcome.
func isErrorShape(info *types.Info, arg ast.Expr, resultFields map[*types.Var]bool) bool {
	lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok {
		return false
	}
	if len(lit.Elts) == 0 {
		return false // a zero frame is an (empty) outcome, not an error
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return false // positional literal sets every field
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return false
		}
		if v, ok := info.Uses[key].(*types.Var); ok && resultFields[v] {
			return false
		}
	}
	return true
}
