// Package lockorder enforces the declared mutex hierarchy.
//
// Every load-bearing mutex carries a //skueue:lock <rank> [io] field
// annotation. While a lock of rank r is held, only locks of strictly
// greater rank may be acquired — equal ranks declare mutual exclusion
// ("never hold both", the tcp Peer.mu / link.bmu rule). The analyzer
// also flags blocking operations (channel ops, fsync/read/write, dial,
// sleep) performed while a ranked lock is held, unless the lock is
// declared an I/O guard with the "io" flag (the journal's file-side
// mutex is held across fsync by design).
//
// The walk is analysis.LockWalk, intraprocedural and lexical, over the
// ranked mutexes only. Deferred unlocks keep the lock held to the end of
// the body, which is what the hierarchy check needs.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"

	"skueue/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutexes nest only along the declared //skueue:lock hierarchy and are not held across blocking ops",
	Run:  run,
}

// blockingIOCalls block the goroutine while a lock is held, keyed by
// (*types.Func).FullName.
var blockingIOCalls = map[string]string{
	"(*os.File).Sync":    "fsync",
	"(*os.File).Write":   "file write",
	"(*os.File).Read":    "file read",
	"(*os.File).ReadAt":  "file read",
	"(*os.File).WriteAt": "file write",
	"time.Sleep":         "sleep",
	"net.Dial":           "network dial",
	"net.DialTimeout":    "network dial",
}

// rank is one mutex's place in the hierarchy.
type rank struct {
	rank int
	io   bool
}

type checker struct {
	pass  *analysis.Pass
	info  *types.Info
	ranks map[*types.Var]rank
}

func run(pass *analysis.Pass) {
	ranks := resolveRanks(pass)
	for _, pkg := range pass.Prog.Pkgs {
		c := &checker{pass: pass, info: pkg.Info, ranks: ranks}
		w := &analysis.LockWalk{Info: pkg.Info, Track: c.ranked, Acquire: c.acquire, Visit: c.visit, Blocking: c.blocking}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					w.Block(fd.Body.List, nil)
				}
			}
		}
	}
}

// resolveRanks reads every //skueue:lock annotation on a mutex field. A
// malformed one is reported and leaves its mutex out of the hierarchy.
func resolveRanks(pass *analysis.Pass) map[*types.Var]rank {
	out := make(map[*types.Var]rank)
	pass.Ann.Fields("lock", func(mu *types.Var, ann analysis.Annotation) {
		if !analysis.IsMutex(mu.Type()) {
			return
		}
		r := rank{rank: -1}
		if len(ann.Args) > 0 {
			if n, err := strconv.Atoi(ann.Args[0]); err == nil {
				r.rank = n
			}
		}
		if r.rank < 0 {
			pass.Reportf(ann.Pos, "malformed //skueue:lock on %s: want a non-negative integer rank", mu.Name())
			return
		}
		r.io = slices.Contains(ann.Args[1:], "io")
		out[mu] = r
	})
	return out
}

func (c *checker) ranked(mu *types.Var) bool {
	_, ok := c.ranks[mu]
	return ok
}

func (c *checker) acquire(call *ast.CallExpr, h analysis.Held, held []analysis.Held) {
	r := c.ranks[h.Field]
	for _, other := range held {
		if other == h {
			c.pass.Reportf(call.Pos(), "%s acquired while already held", h.Expr)
			return
		}
		if o := c.ranks[other.Field]; r.rank <= o.rank {
			c.pass.Reportf(call.Pos(), "lock order violation: acquiring %s (rank %d) while holding %s (rank %d); ranks must strictly increase",
				h.Expr, r.rank, other.Expr, o.rank)
		}
	}
}

// visit flags the blocking I/O calls among an expression's nodes.
func (c *checker) visit(n ast.Node, held []analysis.Held) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	if callee := analysis.Callee(c.info, call); callee != nil {
		if what, ok := blockingIOCalls[callee.FullName()]; ok {
			c.blocking(call.Pos(), what, held)
		}
	}
}

func (c *checker) blocking(pos token.Pos, what string, held []analysis.Held) {
	for _, h := range held {
		if r := c.ranks[h.Field]; !r.io {
			c.pass.Reportf(pos, "%s while holding %s (rank %d); mark the lock \"io\" or move the operation outside the critical section",
				what, h.Expr, r.rank)
			return
		}
	}
}
