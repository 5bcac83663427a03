package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Held is one mutex in a LockWalk's held set: the mutex field and the
// expression that took it, e.g. "s.mu" for s.mu.Lock().
type Held struct {
	Field *types.Var
	Expr  string
}

// LockWalk is the branch-aware lexical walk the lock analyzers share. It
// threads the set of held mutexes through one function body:
// straight-line code, branches, loops, defers and goroutines. A branch
// that returns takes its lock changes with it; locks taken inside a branch
// or loop body are assumed released inside it. A deferred unlock keeps its
// lock held to the end of the body, and a deferred literal runs with the
// set held where it is deferred. A goroutine, and any other function
// literal, starts with nothing held. The walk is intraprocedural; the
// hooks decide what a held set means to an analyzer.
type LockWalk struct {
	Info *types.Info
	// Track reports whether a mutex field takes part in the held set; nil
	// tracks every sync.Mutex and sync.RWMutex field.
	Track func(mu *types.Var) bool
	// Acquire runs when a tracked mutex is taken, before it joins held.
	Acquire func(call *ast.CallExpr, h Held, held []Held)
	// Visit runs on every node of every expression the walk meets, except
	// function literals (walked as bodies of their own) and the calls that
	// take or release a mutex.
	Visit func(n ast.Node, held []Held)
	// Blocking runs on every channel operation that can block: a send, a
	// receive, a range over a channel, a select without a default. The
	// channel operations of a select's cases count only as the select.
	Blocking func(pos token.Pos, what string, held []Held)
}

// Block walks a statement list and returns the set held at its end.
func (w *LockWalk) Block(stmts []ast.Stmt, held []Held) []Held {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
	return held
}

func (w *LockWalk) stmt(s ast.Stmt, held []Held) []Held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.SendStmt:
		w.blocking(s.Pos(), "channel send", held)
		return w.exprs(held, s.Chan, s.Value)
	case *ast.IncDecStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		held = w.exprs(held, s.Rhs...)
		return w.exprs(held, s.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					held = w.exprs(held, vs.Values...)
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// Arguments evaluate now, under the current set; a deferred
		// literal runs at return, approximated by the current set.
		if _, _, isLock := w.lockOp(s.Call); isLock {
			return held
		}
		w.exprs(held, s.Call.Args...)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.Block(lit.Body.List, held)
		} else {
			w.expr(s.Call.Fun, held)
		}
		return held
	case *ast.GoStmt:
		// Arguments evaluate on this goroutine; the body runs on a new one.
		w.exprs(held, s.Call.Args...)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.Block(lit.Body.List, nil)
		} else {
			w.expr(s.Call.Fun, held)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		thenHeld := w.Block(s.Body.List, held)
		elseHeld := held
		if s.Else != nil {
			elseHeld = w.stmt(s.Else, held)
		}
		// A terminating branch takes its lock changes with it; the
		// fall-through state is the other branch's.
		switch {
		case terminates(s.Body) && s.Else == nil:
			return held
		case terminates(s.Body):
			return elseHeld
		case s.Else != nil && stmtTerminates(s.Else):
			return thenHeld
		default:
			return held
		}
	case *ast.BlockStmt:
		return w.Block(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		w.Block(s.Body.List, held)
		return held
	case *ast.RangeStmt:
		if t, ok := w.Info.Types[s.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				w.blocking(s.Pos(), "range over channel", held)
			}
		}
		held = w.expr(s.X, held)
		w.Block(s.Body.List, held)
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Tag, held)
		for _, cl := range s.Body.List {
			w.Block(cl.(*ast.CaseClause).Body, held)
		}
		return held
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.stmt(s.Assign, held)
		for _, cl := range s.Body.List {
			w.Block(cl.(*ast.CaseClause).Body, held)
		}
		return held
	case *ast.SelectStmt:
		if !slices.ContainsFunc(s.Body.List, func(cl ast.Stmt) bool { return cl.(*ast.CommClause).Comm == nil }) {
			w.blocking(s.Pos(), "select without default", held)
		}
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			w.Block(cc.Body, w.comm(cc.Comm, held))
		}
		return held
	case *ast.ReturnStmt:
		return w.exprs(held, s.Results...)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return held
}

// comm walks a select case's communication. Its channel operation is not
// a blocking operation of its own: the select blocks, or not, as a whole.
func (w *LockWalk) comm(s ast.Stmt, held []Held) []Held {
	switch s := s.(type) {
	case *ast.SendStmt:
		return w.exprs(held, s.Chan, s.Value)
	case *ast.ExprStmt:
		return w.expr(recvOperand(s.X), held)
	case *ast.AssignStmt:
		held = w.expr(recvOperand(s.Rhs[0]), held)
		return w.exprs(held, s.Lhs...)
	}
	return held
}

// recvOperand strips the receive off <-ch, leaving ch.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

func (w *LockWalk) exprs(held []Held, es ...ast.Expr) []Held {
	for _, e := range es {
		held = w.expr(e, held)
	}
	return held
}

// expr scans an expression for mutex operations, channel receives and
// function literals, visiting every other node, and returns the set held
// after it.
func (w *LockWalk) expr(e ast.Expr, held []Held) []Held {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			// A literal may run on another goroutine or after the locks
			// are gone: walk it with nothing held.
			w.Block(n.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if h, acquire, isLock := w.lockOp(n); isLock {
				switch {
				case h == nil: // an untracked mutex
				case acquire:
					if w.Acquire != nil {
						w.Acquire(n, *h, held)
					}
					held = append(slices.Clip(held), *h)
				default:
					held = release(held, *h)
				}
				return true
			}
		}
		if w.Visit != nil {
			w.Visit(n, held)
		}
		return true
	})
	return held
}

func (w *LockWalk) blocking(pos token.Pos, what string, held []Held) {
	if w.Blocking != nil {
		w.Blocking(pos, what, held)
	}
}

// lockOp resolves a call x.mu.Lock() (or RLock, Unlock, RUnlock) on a
// mutex field. isLock reports a mutex operation at all; h is nil when
// Track leaves the mutex out.
func (w *LockWalk) lockOp(call *ast.CallExpr) (h *Held, acquire, isLock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	mu, ok := w.Info.Uses[recv.Sel].(*types.Var)
	if !ok || !IsMutex(mu.Type()) {
		return nil, false, false
	}
	if w.Track != nil && !w.Track(mu) {
		return nil, acquire, true
	}
	return &Held{Field: mu, Expr: types.ExprString(sel.X)}, acquire, true
}

// release drops the most recent hold of h, matching the expression that
// took it or, failing that, any hold of the same mutex field.
func release(held []Held, h Held) []Held {
	i := len(held) - 1
	for i >= 0 && held[i] != h {
		i--
	}
	if i < 0 {
		i = len(held) - 1
		for i >= 0 && held[i].Field != h.Field {
			i--
		}
	}
	if i < 0 {
		return held
	}
	return append(slices.Clip(held[:i]), held[i+1:]...)
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex.
func IsMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func terminates(b *ast.BlockStmt) bool {
	return len(b.List) > 0 && stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}
