// Package stack implements the stack-specific machinery of §VI: the local
// combining of PUSH/POP pairs. A node that generates a POP while it still
// buffers an unsent PUSH can answer both immediately — the POP returns the
// newest buffered PUSH's element — without involving the anchor at all.
// The buffered residual word is then always of the form POP^a PUSH^b,
// which is why stack batches have constant size (Theorem 20).
//
// The anchor-side stack changes (tickets, descending pop intervals) live
// in internal/batch; the stage-4 completion wait lives in internal/core.
package stack

import "slices"

// Combiner maintains a node's buffered, not-yet-sent stack operations in
// the reduced form POP^a PUSH^b. It never looks inside an operation, so
// the record type is the caller's: internal/core buffers its own operation
// record here unconverted.
type Combiner[T any] struct {
	pops   []T
	pushes []T
}

// Push buffers a push. A push never combines on arrival (only a later pop
// can consume it).
func (c *Combiner[T]) Push(op T) {
	c.pushes = append(c.pushes, op)
}

// Pop either combines with the newest buffered push — returning it with
// ok=true, in which case both operations are complete — or buffers the pop
// (ok=false).
func (c *Combiner[T]) Pop(op T) (match T, ok bool) {
	if n := len(c.pushes); n > 0 {
		match = c.pushes[n-1]
		c.pushes = c.pushes[:n-1]
		return match, true
	}
	c.pops = append(c.pops, op)
	return match, false
}

// TakeResidual removes and returns the buffered residual word: all pops
// (in issue order) followed by all pushes (in issue order). It is called
// when the node folds its waiting batch into the processing batch.
func (c *Combiner[T]) TakeResidual() (pops, pushes []T) {
	pops, pushes = c.pops, c.pushes
	c.pops, c.pushes = nil, nil
	return pops, pushes
}

// Counts returns the residual word shape (a pops, b pushes).
func (c *Combiner[T]) Counts() (pops, pushes int) {
	return len(c.pops), len(c.pushes)
}

// Empty reports whether nothing is buffered.
func (c *Combiner[T]) Empty() bool { return len(c.pops) == 0 && len(c.pushes) == 0 }

// Snapshot returns copies of the buffered residual word — all pops and all
// pushes in issue order — without disturbing the combiner. It is the
// fail-stop persistence surface: a networked member captures the residual
// into its write-ahead snapshot so buffered stack operations survive a
// crash (see internal/core.SnapshotMember).
func (c *Combiner[T]) Snapshot() (pops, pushes []T) {
	return slices.Clone(c.pops), slices.Clone(c.pushes)
}

// Restore replaces the combiner's contents with a previously snapshotted
// residual word. The word must already have the reduced POP^a PUSH^b
// shape, which Snapshot guarantees; restoring re-arms the buffered
// operations exactly where the crash interrupted them.
func (c *Combiner[T]) Restore(pops, pushes []T) {
	c.pops = append(c.pops[:0], pops...)
	c.pushes = append(c.pushes[:0], pushes...)
}
