package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. Run sees the whole Program and
// reports findings through the Pass; it runs exactly once per Program.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //skueue:ignore comments.
	Name string
	// Doc is the one-line description shown by `skueue-lint -list`.
	Doc string
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries the program and the reporting sink into one analyzer run.
type Pass struct {
	Prog *Program
	Ann  *Annotations

	analyzer *Analyzer
	sink     *[]Diagnostic
}

// Reportf records a finding at pos unless a //skueue:ignore for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Ann.Suppressed(position, p.analyzer.Name) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over prog and returns their findings sorted
// by position, plus any malformed-suppression diagnostics the annotation
// scan produced.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, prog.Ann.malformed...)
	for _, a := range analyzers {
		pass := &Pass{Prog: prog, Ann: prog.Ann, analyzer: a, sink: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Pos, diags[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ---- Shared type/AST helpers used by several analyzers ----

// FuncDeclFor maps a *types.Func back to its declaration within the
// program, or nil for functions outside it (standard library).
func (p *Program) FuncDeclFor(fn *types.Func) *ast.FuncDecl {
	pkg := p.byPath[pkgPath(fn)]
	if pkg == nil {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

func pkgPath(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// Callee resolves the *types.Func a call expression statically invokes:
// a plain function, a concrete method, or an interface method (the caller
// decides how to handle dynamic dispatch). nil for calls of function
// values, builtins and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (qualifier is a package name).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsInterfaceCall reports whether call dispatches through an interface
// method (the receiver's static type is an interface).
func IsInterfaceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	return types.IsInterface(selection.Recv())
}

// Implementations resolves an interface method to the method of the same
// name on every concrete type of the program that satisfies the interface,
// by value or by pointer: a dynamic call can land on any of them.
func (p *Program) Implementations(m *types.Func) []*types.Func {
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(tn.Type(), iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// FuncID renders a function for diagnostics: pkg.Func or (pkg.Recv).Meth,
// always package-qualified (by name, not import path) so cross-package
// call paths read unambiguously.
func FuncID(fn *types.Func) string {
	if fn == nil {
		return "<dynamic>"
	}
	qual := func(p *types.Package) string { return p.Name() }
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), qual), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
