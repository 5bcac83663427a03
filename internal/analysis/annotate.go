package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Annotation is one parsed //skueue:<name> marker.
type Annotation struct {
	Name   string
	Args   []string
	Reason string
	Pos    token.Pos
}

// knownAnnotations guards against typos: a marker outside this set is
// reported instead of silently doing nothing.
var knownAnnotations = map[string]bool{
	"runner":            true,
	"runs-on-runner":    true,
	"nonblocking":       true,
	"blocking":          true,
	"lock":              true,
	"client-release":    true,
	"client-outcome":    true,
	"journaled-release": true,
	"future":            true,
	"awaits-future":     true,
	"snapshot-state":    true,
	"snapshot-capture":  true,
	"snapshot-restore":  true,
	"ephemeral":         true,
	"guarded-by":        true,
	"owned-by":          true,
	"locked":            true,
}

// Annotations indexes every //skueue: marker in a Program by the object
// it annotates.
type Annotations struct {
	fn      map[*types.Func][]Annotation
	field   map[*types.Var][]Annotation
	typ     map[*types.TypeName][]Annotation
	unknown []Diagnostic
}

// Func returns the named annotation on fn's declaration, or nil.
func (a *Annotations) Func(fn *types.Func, name string) *Annotation {
	return find(a.fn[fn], name)
}

// Field returns the named annotation on a struct field, or nil.
func (a *Annotations) Field(v *types.Var, name string) *Annotation {
	return find(a.field[v], name)
}

// Type returns the named annotation on a type declaration, or nil.
func (a *Annotations) Type(tn *types.TypeName, name string) *Annotation {
	return find(a.typ[tn], name)
}

// Funcs calls fn for every function carrying the named annotation.
func (a *Annotations) Funcs(name string, visit func(*types.Func, Annotation)) {
	for obj, anns := range a.fn {
		if ann := find(anns, name); ann != nil {
			visit(obj, *ann)
		}
	}
}

// Types calls visit for every type carrying the named annotation.
func (a *Annotations) Types(name string, visit func(*types.TypeName, Annotation)) {
	for obj, anns := range a.typ {
		if ann := find(anns, name); ann != nil {
			visit(obj, *ann)
		}
	}
}

// Fields calls visit for every struct field carrying the named annotation.
func (a *Annotations) Fields(name string, visit func(*types.Var, Annotation)) {
	for obj, anns := range a.field {
		if ann := find(anns, name); ann != nil {
			visit(obj, *ann)
		}
	}
}

func find(anns []Annotation, name string) *Annotation {
	for i := range anns {
		if anns[i].Name == name {
			return &anns[i]
		}
	}
	return nil
}

// parseMarker parses one comment line. ok is false for ordinary comments.
func parseMarker(text string) (ann Annotation, ok bool) {
	body, found := strings.CutPrefix(strings.TrimSpace(text), "//skueue:")
	if !found {
		return ann, false
	}
	body, reason, hasReason := strings.Cut(body, " -- ")
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return ann, false
	}
	ann.Name = fields[0]
	ann.Args = fields[1:]
	if hasReason {
		ann.Reason = strings.TrimSpace(reason)
	}
	return ann, true
}

func buildAnnotations(prog *Program) *Annotations {
	a := &Annotations{
		fn:    make(map[*types.Func][]Annotation),
		field: make(map[*types.Var][]Annotation),
		typ:   make(map[*types.TypeName][]Annotation),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			a.scanComments(prog.Fset, file)
			a.scanDecls(prog.Fset, pkg.Info, file)
		}
	}
	return a
}

// scanComments flags unknown markers; it sees every comment in the file,
// so markers that scanDecls also picks up are validated here exactly once.
func (a *Annotations) scanComments(fset *token.FileSet, file *ast.File) {
	for _, group := range file.Comments {
		for _, c := range group.List {
			if ann, ok := parseMarker(c.Text); ok && !knownAnnotations[ann.Name] {
				a.unknown = append(a.unknown, Diagnostic{
					Analyzer: "lint", Pos: fset.Position(c.Pos()),
					Message: "unknown marker //skueue:" + ann.Name,
				})
			}
		}
	}
}

// scanDecls attaches markers to the objects they document:
// function declarations, interface methods, struct fields and type specs.
func (a *Annotations) scanDecls(fset *token.FileSet, info *types.Info, file *ast.File) {
	addFunc := func(ident *ast.Ident, groups ...*ast.CommentGroup) {
		fn, ok := info.Defs[ident].(*types.Func)
		if !ok {
			return
		}
		a.fn[fn] = append(a.fn[fn], markersOf(groups)...)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			addFunc(n.Name, n.Doc)
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					addFunc(name, m.Doc, m.Comment)
				}
			}
		case *ast.StructType:
			for _, f := range n.Fields.List {
				anns := markersOf([]*ast.CommentGroup{f.Doc, f.Comment})
				if len(anns) == 0 {
					continue
				}
				for _, name := range f.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						a.field[v] = append(a.field[v], anns...)
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				anns := markersOf([]*ast.CommentGroup{ts.Doc, n.Doc, ts.Comment})
				if len(anns) == 0 {
					continue
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					a.typ[tn] = append(a.typ[tn], anns...)
				}
			}
		}
		return true
	})
}

func markersOf(groups []*ast.CommentGroup) []Annotation {
	var out []Annotation
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if ann, ok := parseMarker(c.Text); ok && knownAnnotations[ann.Name] {
				ann.Pos = c.Pos()
				out = append(out, ann)
			}
		}
	}
	return out
}
