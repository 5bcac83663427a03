// Package runnerblock reports blocking operations reachable from a
// transport runner goroutine.
//
// The tcp transport multiplexes every handler onto one runner goroutine
// per peer; anything that blocks there stalls message delivery, timer
// ticks and reconnects for the whole node (the PR 5 fsync-on-the-runner
// regression). The analyzer walks the call graph from //skueue:runner
// roots — following static calls, interface dispatch to every in-module
// implementation, func literals (except those started with go), and
// func literals handed to //skueue:runs-on-runner schedulers — and
// reports fsyncs, sleeps, dials, channel sends outside select-default,
// and calls to //skueue:blocking functions, with the call path that
// reaches them. //skueue:nonblocking prunes traversal into a function;
// an //skueue:ignore on a call site prunes that one edge.
package runnerblock

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"skueue/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "runnerblock",
	Doc:  "code reachable from a transport runner must not block (fsync, sleep, dial, unguarded channel send)",
	Run:  run,
}

// blockingStdCalls are standard-library calls that block the calling
// goroutine, keyed by (*types.Func).FullName.
var blockingStdCalls = map[string]string{
	"(*os.File).Sync": "fsync",
	"time.Sleep":      "sleep",
	"net.Dial":        "network dial",
	"net.DialTimeout": "network dial",
	"net.DialTCP":     "network dial",
}

// body is one callable unit: a declared function or a func literal.
type body struct {
	pkg *analysis.Package
	fn  *types.Func  // nil for literals
	lit *ast.FuncLit // nil for declared functions
	via string       // for literal roots: the scheduler they were handed to
}

func (b *body) label(fset *token.FileSet) string {
	if b.fn != nil {
		return analysis.FuncID(b.fn)
	}
	pos := fset.Position(b.lit.Pos())
	return fmt.Sprintf("func literal at %s:%d", pos.Filename, pos.Line)
}

// visit is a node in the BFS tree; parent links reconstruct the path
// from a runner root to the blocking operation for the diagnostic.
type visit struct {
	b      *body
	parent *visit
}

type graph struct {
	pass     *analysis.Pass
	declBody map[*types.Func]*body
	declOf   map[*types.Func]*ast.FuncDecl
	visited  map[ast.Node]bool // FuncDecl or FuncLit
	queue    []*visit
}

func run(pass *analysis.Pass) {
	g := &graph{
		pass:     pass,
		declBody: make(map[*types.Func]*body),
		declOf:   make(map[*types.Func]*ast.FuncDecl),
		visited:  make(map[ast.Node]bool),
	}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.declBody[fn] = &body{pkg: pkg, fn: fn}
				g.declOf[fn] = fd
			}
		}
	}

	// Roots: //skueue:runner functions, in source order for deterministic
	// BFS (and therefore deterministic diagnostic paths).
	var roots []*types.Func
	pass.Ann.Funcs("runner", func(fn *types.Func, _ analysis.Annotation) {
		if g.declBody[fn] != nil {
			roots = append(roots, fn)
		}
	})
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	for _, fn := range roots {
		g.enqueue(g.declBody[fn], nil)
	}

	// Func literals handed to //skueue:runs-on-runner schedulers execute
	// on the runner no matter where the call site lives: they are roots.
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.Callee(pkg.Info, call)
				if callee == nil || pass.Ann.Func(callee, "runs-on-runner") == nil {
					return true
				}
				if g.edgeSuppressed(call.Pos()) {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						g.enqueue(&body{pkg: pkg, lit: lit, via: analysis.FuncID(callee)}, nil)
					}
				}
				return true
			})
		}
	}

	for len(g.queue) > 0 {
		v := g.queue[0]
		g.queue = g.queue[1:]
		g.scan(v)
	}
}

func (g *graph) edgeSuppressed(pos token.Pos) bool {
	return g.pass.Ann.Suppressed(g.pass.Prog.Fset.Position(pos), "runnerblock")
}

func (g *graph) enqueue(b *body, parent *visit) {
	var key ast.Node
	if b.fn != nil {
		key = g.declOf[b.fn]
	} else {
		key = b.lit
	}
	if key == nil || g.visited[key] {
		return
	}
	g.visited[key] = true
	g.queue = append(g.queue, &visit{b: b, parent: parent})
}

func (g *graph) scan(v *visit) {
	var block *ast.BlockStmt
	if v.b.fn != nil {
		block = g.declOf[v.b.fn].Body
	} else {
		block = v.b.lit.Body
	}
	// Sends that are a comm clause of a select with a default case are
	// non-blocking attempts; selects are visited before their clauses, so
	// the set is populated before the send is reached.
	okSends := make(map[ast.Stmt]bool)
	ast.Inspect(block, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A spawned goroutine is not the runner.
			return false
		case *ast.FuncLit:
			g.enqueue(&body{pkg: v.b.pkg, lit: n}, v)
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, cl := range n.Body.List {
					if comm := cl.(*ast.CommClause).Comm; comm != nil {
						okSends[comm] = true
					}
				}
			}
		case *ast.SendStmt:
			if !okSends[n] {
				g.report(v, n.Pos(), "channel send outside a select with default")
			}
		case *ast.CallExpr:
			g.call(v, n)
		}
		return true
	})
}

func (g *graph) call(v *visit, call *ast.CallExpr) {
	info := v.b.pkg.Info
	callee := analysis.Callee(info, call)
	if callee == nil {
		return // dynamic call through a function value; literals are edged at their definition
	}
	if g.edgeSuppressed(call.Pos()) {
		return
	}
	if g.pass.Ann.Func(callee, "nonblocking") != nil {
		return
	}
	if ann := g.pass.Ann.Func(callee, "blocking"); ann != nil {
		g.report(v, call.Pos(), fmt.Sprintf("call to %s, which blocks by design (%s)", analysis.FuncID(callee), ann.Reason))
		return
	}
	if what, ok := blockingStdCalls[callee.FullName()]; ok {
		g.report(v, call.Pos(), fmt.Sprintf("%s via %s", what, analysis.FuncID(callee)))
		return
	}
	if analysis.IsInterfaceCall(info, call) {
		for _, impl := range g.pass.Prog.Implementations(callee) {
			if g.pass.Ann.Func(impl, "nonblocking") != nil {
				continue
			}
			if ann := g.pass.Ann.Func(impl, "blocking"); ann != nil {
				g.report(v, call.Pos(), fmt.Sprintf("dynamic call to %s, which blocks by design (%s)", analysis.FuncID(impl), ann.Reason))
				continue
			}
			if b := g.declBody[impl]; b != nil {
				g.enqueue(b, v)
			}
		}
		return
	}
	if b := g.declBody[callee]; b != nil {
		g.enqueue(b, v)
	}
}

func (g *graph) report(v *visit, pos token.Pos, msg string) {
	g.pass.Reportf(pos, "%s on runner hot path: %s", msg, g.path(v))
}

func (g *graph) path(v *visit) string {
	fset := g.pass.Prog.Fset
	var labels []string
	for cur := v; cur != nil; cur = cur.parent {
		labels = append(labels, cur.b.label(fset))
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	root := v
	for root.parent != nil {
		root = root.parent
	}
	if root.b.via != "" {
		labels[0] += " (runs on runner via " + root.b.via + ")"
	}
	return strings.Join(labels, " -> ")
}
