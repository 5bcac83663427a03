// Package guardedby enforces declared mutex→field guard relations.
//
// A struct field annotated //skueue:guarded-by <mutexfield> may only be
// read or written while that mutex is held. Two spellings are accepted:
//
//	//skueue:guarded-by mu        — sibling field of the same struct;
//	                                 an access x.f needs x.mu held
//	//skueue:guarded-by Server.mu — a mutex field of another struct in
//	                                 the same package; any holder of
//	                                 that mutex qualifies
//
// Two escape hatches keep the rule honest instead of noisy:
//
//	//skueue:owned-by <owner> -- reason   on a function: its whole body
//	    is exempt — the function runs while no other goroutine can see
//	    the fields (constructors, pre-Start restore paths, runner-only
//	    helpers).
//	//skueue:locked <mutexfield>          on a method: the body is
//	    analyzed with the receiver's mutex already held, and every call
//	    site is checked to actually hold it (the *Locked helper idiom).
//
// The walk is analysis.LockWalk, the branch-aware lexical pass lockorder
// uses too: it threads the held-lock set through straight-line code,
// branches, loops and defers of one function body. Unlike lockorder it
// tracks every sync.Mutex/RWMutex field acquisition, ranked or not.
// Accesses are field selections (x.f); keyed composite-literal writes are
// exempt by design — a literal builds a fresh value no other goroutine can
// see yet. Aliased receivers (two variables naming the same struct) defeat
// the sibling-form expression match; name the receiver consistently or
// suppress with a justification.
package guardedby

import (
	"go/ast"
	"go/types"
	"strings"

	"skueue/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "//skueue:guarded-by fields are only touched with their mutex held, from an //skueue:owned-by function, or via an //skueue:locked helper",
	Run:  run,
}

// guard is one resolved //skueue:guarded-by relation.
type guard struct {
	mu      *types.Var // the guarding mutex field
	sibling bool       // same-struct form: the access path must match
	display string     // annotation text for diagnostics
	owner   string     // name of the struct declaring the guarded field
}

type checker struct {
	pass   *analysis.Pass
	pkg    *analysis.Package
	guards map[*types.Var]*guard      // guarded field -> its relation
	locked map[*types.Func]*types.Var // //skueue:locked method -> receiver mutex
}

func run(pass *analysis.Pass) {
	guards := resolveGuards(pass)
	locked := resolveLocked(pass)
	for _, pkg := range pass.Prog.Pkgs {
		c := &checker{pass: pass, pkg: pkg, guards: guards, locked: locked}
		w := &analysis.LockWalk{Info: pkg.Info, Visit: c.visit}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn != nil {
					if ann := pass.Ann.Func(fn, "owned-by"); ann != nil {
						if len(ann.Args) == 0 || ann.Reason == "" {
							pass.Reportf(fn.Pos(), `malformed //skueue:owned-by on %s: want "//skueue:owned-by <owner> -- reason"`, fn.Name())
						}
						continue // single-owner context: no locking required
					}
				}
				var seed []analysis.Held
				if fn != nil {
					if mu := locked[fn]; mu != nil {
						seed = seedLocked(fd, mu)
					}
				}
				w.Block(fd.Body.List, seed)
			}
		}
	}
}

// seedLocked builds the initial held set of an //skueue:locked method:
// the receiver's mutex is held on entry by contract.
func seedLocked(fd *ast.FuncDecl, mu *types.Var) []analysis.Held {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recv := fd.Recv.List[0].Names[0].Name
	if recv == "" || recv == "_" {
		return nil
	}
	return []analysis.Held{{Field: mu, Expr: recv + "." + mu.Name()}}
}

// resolveGuards maps every //skueue:guarded-by field to its mutex.
func resolveGuards(pass *analysis.Pass) map[*types.Var]*guard {
	out := make(map[*types.Var]*guard)
	pass.Ann.Fields("guarded-by", func(f *types.Var, ann analysis.Annotation) {
		if len(ann.Args) != 1 {
			pass.Reportf(f.Pos(), `malformed //skueue:guarded-by on %s: want "//skueue:guarded-by <mutexfield>" or "//skueue:guarded-by <Type>.<mutexfield>"`, f.Name())
			return
		}
		ownerName, st := owningStruct(pass.Prog, f)
		g := &guard{display: ann.Args[0], owner: ownerName}
		if typeName, muName, qualified := strings.Cut(ann.Args[0], "."); qualified {
			g.mu = structField(namedStruct(f.Pkg(), typeName), muName)
		} else if st != nil {
			g.sibling = true
			g.mu = structField(st, ann.Args[0])
		}
		if g.mu == nil {
			pass.Reportf(f.Pos(), "//skueue:guarded-by on %s names %q, which does not resolve to a field in this package", f.Name(), ann.Args[0])
			return
		}
		if !analysis.IsMutex(g.mu.Type()) {
			pass.Reportf(f.Pos(), "//skueue:guarded-by on %s names %q, which is not a sync.Mutex or sync.RWMutex field", f.Name(), ann.Args[0])
			return
		}
		out[f] = g
	})
	return out
}

// resolveLocked maps every //skueue:locked method to the receiver mutex
// its contract requires held.
func resolveLocked(pass *analysis.Pass) map[*types.Func]*types.Var {
	out := make(map[*types.Func]*types.Var)
	pass.Ann.Funcs("locked", func(fn *types.Func, ann analysis.Annotation) {
		sig, _ := fn.Type().(*types.Signature)
		if len(ann.Args) != 1 || sig == nil || sig.Recv() == nil {
			pass.Reportf(fn.Pos(), `malformed //skueue:locked on %s: want "//skueue:locked <mutexfield>" on a method`, fn.Name())
			return
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		st, _ := recv.Underlying().(*types.Struct)
		mu := structField(st, ann.Args[0])
		if mu == nil || !analysis.IsMutex(mu.Type()) {
			pass.Reportf(fn.Pos(), "//skueue:locked on %s names %q, which is not a sync mutex field of the receiver", fn.Name(), ann.Args[0])
			return
		}
		out[fn] = mu
	})
	return out
}

// owningStruct finds the named struct type declaring field f.
func owningStruct(prog *analysis.Program, f *types.Var) (string, *types.Struct) {
	if f.Pkg() == nil {
		return "", nil
	}
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name(), st
			}
		}
	}
	return "", nil
}

func namedStruct(pkg *types.Package, name string) *types.Struct {
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	return st
}

func structField(st *types.Struct, name string) *types.Var {
	if st == nil {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// visit checks the guarded-field accesses and //skueue:locked call sites
// among an expression's nodes.
func (c *checker) visit(n ast.Node, held []analysis.Held) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		c.checkAccess(n, held)
	case *ast.CallExpr:
		c.checkLockedCall(n, held)
	}
}

// checkAccess flags a read or write of a guarded field without its
// mutex. Keyed composite-literal fields are not selector expressions
// and are therefore exempt (a fresh value under construction).
func (c *checker) checkAccess(sel *ast.SelectorExpr, held []analysis.Held) {
	selection, ok := c.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	f, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	g, ok := c.guards[f]
	if !ok {
		return
	}
	if c.holds(g, sel, held) {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(), "%s.%s accessed without holding its guard %s (//skueue:guarded-by); hold the mutex, use an //skueue:locked helper, or mark the function //skueue:owned-by",
		g.owner, f.Name(), g.display)
}

func (c *checker) holds(g *guard, sel *ast.SelectorExpr, held []analysis.Held) bool {
	want := ""
	if g.sibling {
		want = types.ExprString(sel.X) + "." + g.mu.Name()
	}
	for _, h := range held {
		if h.Field != g.mu {
			continue
		}
		if !g.sibling || h.Expr == want {
			return true
		}
	}
	return false
}

// checkLockedCall enforces the //skueue:locked contract at call sites:
// calling x.fooLocked() requires x's mutex in the held set.
func (c *checker) checkLockedCall(call *ast.CallExpr, held []analysis.Held) {
	callee := analysis.Callee(c.pkg.Info, call)
	if callee == nil {
		return
	}
	mu, ok := c.locked[callee]
	if !ok {
		return
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	want := ""
	if isSel {
		want = types.ExprString(sel.X) + "." + mu.Name()
	}
	for _, h := range held {
		if h.Field == mu && (want == "" || h.Expr == want) {
			return
		}
	}
	c.pass.Reportf(call.Pos(), "call to %s requires %s held at the call site (//skueue:locked)",
		analysis.FuncID(callee), mu.Name())
}
