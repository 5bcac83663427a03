// Package statecomplete enforces snapshot-state completeness: "added a
// field, forgot the snapshot" fails in CI instead of surfacing as a
// recovery bug months later.
//
// A struct annotated //skueue:snapshot-state <ImageType> declares that
// its instances survive fail-stop restarts through the named image
// struct. Functions annotated //skueue:snapshot-capture <State...> and
// //skueue:snapshot-restore <State...> are the roots of the capture and
// restore paths for those states. The analyzer computes the transitive
// static call closure of each root — expanding interface calls to every
// module implementation, so strategy seams like the core discipline
// interface are followed — and requires:
//
//   - every named field of the state struct is referenced somewhere in
//     the capture or restore closure, or carries
//     //skueue:ephemeral -- reason (the written justification for why
//     it need not survive a restart);
//   - every named field of the image struct is referenced in BOTH the
//     capture closure and the restore closure (a field captured but
//     never restored — or vice versa — is exactly the half-wired bug
//     the rule exists for), taking the union over all states that
//     declare the same image;
//   - each state has at least one capture and one restore root.
//
// "Referenced" is lexical: any identifier resolving to the field
// object, which covers selector reads/writes and keyed composite
// literal fields alike. A refusal check (len(n.heldServes) > 0 → defer
// the snapshot) therefore counts as coverage — the analyzer verifies
// the snapshot code CONSIDERED the field, not that it serialized it.
// Embedded (anonymous) fields are skipped: marker comments cannot
// attach to them, and they are structural composition rather than
// state.
package statecomplete

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"skueue/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "statecomplete",
	Doc:  "every field of a //skueue:snapshot-state struct is captured and restored (or justified //skueue:ephemeral), and its image has no dead fields",
	Run:  run,
}

// state is one //skueue:snapshot-state declaration with its resolved
// image and snapshot roots.
type state struct {
	decl    *types.TypeName
	img     *types.TypeName
	capture []*types.Func
	restore []*types.Func
}

func run(pass *analysis.Pass) {
	states := collectStates(pass)
	collectRoots(pass, states, "snapshot-capture", func(s *state, fn *types.Func) { s.capture = append(s.capture, fn) })
	collectRoots(pass, states, "snapshot-restore", func(s *state, fn *types.Func) { s.restore = append(s.restore, fn) })
	checkEphemeralReasons(pass)

	// imgRefs accumulates, per image type, the union of capture-side and
	// restore-side references over every state declaring that image.
	type imgSide struct{ cap, res map[*types.Var]bool }
	imgRefs := make(map[*types.TypeName]*imgSide)

	for _, tn := range sortedStates(states) {
		s := states[tn]
		missing := false
		if len(s.capture) == 0 {
			pass.Reportf(tn.Pos(), "//skueue:snapshot-state %s has no //skueue:snapshot-capture function", tn.Name())
			missing = true
		}
		if len(s.restore) == 0 {
			pass.Reportf(tn.Pos(), "//skueue:snapshot-state %s has no //skueue:snapshot-restore function", tn.Name())
			missing = true
		}
		if missing {
			continue
		}
		capRefs := referenced(pass.Prog, closure(pass, s.capture))
		resRefs := referenced(pass.Prog, closure(pass, s.restore))

		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() || capRefs[f] || resRefs[f] {
				continue
			}
			if pass.Ann.Field(f, "ephemeral") != nil {
				continue
			}
			pass.Reportf(f.Pos(), "%s.%s survives a restart but is not referenced by its snapshot functions (capture: %s; restore: %s); image it or mark it //skueue:ephemeral with a reason",
				tn.Name(), f.Name(), funcList(s.capture), funcList(s.restore))
		}

		side := imgRefs[s.img]
		if side == nil {
			side = &imgSide{cap: make(map[*types.Var]bool), res: make(map[*types.Var]bool)}
			imgRefs[s.img] = side
		}
		for f := range capRefs {
			side.cap[f] = true
		}
		for f := range resRefs {
			side.res[f] = true
		}
	}

	imgs := make([]*types.TypeName, 0, len(imgRefs))
	for img := range imgRefs {
		imgs = append(imgs, img)
	}
	sort.Slice(imgs, func(i, j int) bool { return imgs[i].Pos() < imgs[j].Pos() })
	for _, img := range imgs {
		side := imgRefs[img]
		st, _ := img.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() {
				continue
			}
			switch {
			case !side.cap[f] && !side.res[f]:
				pass.Reportf(f.Pos(), "image field %s.%s is dead: no //skueue:snapshot-capture or //skueue:snapshot-restore path references it", img.Name(), f.Name())
			case !side.res[f]:
				pass.Reportf(f.Pos(), "image field %s.%s is captured but never restored: no //skueue:snapshot-restore path references it", img.Name(), f.Name())
			case !side.cap[f]:
				pass.Reportf(f.Pos(), "image field %s.%s is restored but never captured: no //skueue:snapshot-capture path references it", img.Name(), f.Name())
			}
		}
	}
}

// collectStates resolves every //skueue:snapshot-state annotation to its
// image type (looked up in the declaring package).
func collectStates(pass *analysis.Pass) map[*types.TypeName]*state {
	states := make(map[*types.TypeName]*state)
	pass.Ann.Types("snapshot-state", func(tn *types.TypeName, ann analysis.Annotation) {
		if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
			pass.Reportf(tn.Pos(), "//skueue:snapshot-state on %s, which is not a struct type", tn.Name())
			return
		}
		if len(ann.Args) != 1 {
			pass.Reportf(tn.Pos(), `malformed //skueue:snapshot-state on %s: want "//skueue:snapshot-state <ImageType>"`, tn.Name())
			return
		}
		img := lookupType(tn.Pkg(), ann.Args[0])
		if img == nil {
			pass.Reportf(tn.Pos(), "//skueue:snapshot-state on %s names image %q, which does not resolve to a struct type in this package", tn.Name(), ann.Args[0])
			return
		}
		states[tn] = &state{decl: tn, img: img}
	})
	return states
}

// collectRoots attaches //skueue:snapshot-capture / snapshot-restore
// functions to the states their arguments name.
func collectRoots(pass *analysis.Pass, states map[*types.TypeName]*state, marker string, add func(*state, *types.Func)) {
	pass.Ann.Funcs(marker, func(fn *types.Func, ann analysis.Annotation) {
		if len(ann.Args) == 0 {
			pass.Reportf(fn.Pos(), `malformed //skueue:%s on %s: want "//skueue:%s <State> [<State>...]"`, marker, fn.Name(), marker)
			return
		}
		for _, arg := range ann.Args {
			tn := lookupType(fn.Pkg(), arg)
			s := states[tn]
			if s == nil {
				pass.Reportf(fn.Pos(), "//skueue:%s on %s names %q, which does not name a //skueue:snapshot-state struct in this package", marker, fn.Name(), arg)
				continue
			}
			add(s, fn)
		}
	})
}

func checkEphemeralReasons(pass *analysis.Pass) {
	pass.Ann.Fields("ephemeral", func(f *types.Var, ann analysis.Annotation) {
		if ann.Reason == "" {
			pass.Reportf(f.Pos(), "//skueue:ephemeral on %s needs a reason (\"-- why it need not survive a restart\")", f.Name())
		}
	})
}

func lookupType(pkg *types.Package, name string) *types.TypeName {
	if pkg == nil {
		return nil
	}
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return tn
}

// closure computes the transitive static call closure of the roots
// within the module: function and method calls follow their resolved
// callee, and interface-method calls expand to every module type
// implementing the interface. Calls through function values are not
// followed (no bodies to follow them into).
func closure(pass *analysis.Pass, roots []*types.Func) []*types.Func {
	seen := make(map[*types.Func]bool)
	var queue []*types.Func
	push := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, fn := range roots {
		push(fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := pass.Prog.FuncDeclFor(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		info := infoFor(pass.Prog, fn)
		if info == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(info, call)
			if callee == nil {
				return true
			}
			if analysis.IsInterfaceCall(info, call) {
				for _, impl := range pass.Prog.Implementations(callee) {
					push(impl)
				}
				return true
			}
			push(callee)
			return true
		})
	}
	out := make([]*types.Func, 0, len(seen))
	for fn := range seen {
		out = append(out, fn)
	}
	return out
}

// referenced collects every field object an identifier in the closure's
// bodies resolves to: selector accesses and keyed composite-literal
// fields alike.
func referenced(prog *analysis.Program, fns []*types.Func) map[*types.Var]bool {
	refs := make(map[*types.Var]bool)
	for _, fn := range fns {
		decl := prog.FuncDeclFor(fn)
		if decl == nil || decl.Body == nil {
			continue
		}
		info := infoFor(prog, fn)
		if info == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				refs[v] = true
			}
			return true
		})
	}
	return refs
}

func infoFor(prog *analysis.Program, fn *types.Func) *types.Info {
	for _, pkg := range prog.Pkgs {
		if pkg.Types == fn.Pkg() {
			return pkg.Info
		}
	}
	return nil
}

func sortedStates(states map[*types.TypeName]*state) []*types.TypeName {
	out := make([]*types.TypeName, 0, len(states))
	for tn := range states {
		out = append(out, tn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func funcList(fns []*types.Func) string {
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = analysis.FuncID(fn)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
