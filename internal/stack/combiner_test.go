package stack

import (
	"testing"
	"testing/quick"

	"skueue/internal/dht"
)

// testOp stands in for the caller's operation record: the combiner is
// generic and never reads a field.
type testOp struct {
	ReqID    uint64
	Elem     dht.Element
	LocalSeq int64
}

func push(seq int64) testOp {
	return testOp{ReqID: uint64(seq), Elem: dht.Element{Seq: seq}, LocalSeq: seq}
}

func TestPopCombinesWithNewestPush(t *testing.T) {
	var c Combiner[testOp]
	c.Push(push(1))
	c.Push(push(2))
	m, ok := c.Pop(testOp{LocalSeq: 3})
	if !ok || m.Elem.Seq != 2 {
		t.Fatalf("pop should combine with push 2, got %v ok=%v", m, ok)
	}
	m, ok = c.Pop(testOp{LocalSeq: 4})
	if !ok || m.Elem.Seq != 1 {
		t.Fatalf("second pop should combine with push 1, got %v", m)
	}
	if _, ok := c.Pop(testOp{LocalSeq: 5}); ok {
		t.Fatalf("third pop has nothing to combine with")
	}
	if a, b := c.Counts(); a != 1 || b != 0 {
		t.Fatalf("residual should be 1 pop, got %d/%d", a, b)
	}
}

func TestResidualShape(t *testing.T) {
	// Any sequence reduces to pops-then-pushes.
	var c Combiner[testOp]
	c.Pop(testOp{LocalSeq: 0})
	c.Push(push(1))
	c.Push(push(2))
	m, ok := c.Pop(testOp{LocalSeq: 3})
	if !ok || m.LocalSeq != 2 {
		t.Fatalf("expected combine with local seq 2")
	}
	c.Push(push(4))
	pops, pushes := c.TakeResidual()
	if len(pops) != 1 || pops[0].LocalSeq != 0 {
		t.Fatalf("residual pops wrong: %v", pops)
	}
	if len(pushes) != 2 || pushes[0].LocalSeq != 1 || pushes[1].LocalSeq != 4 {
		t.Fatalf("residual pushes wrong: %v", pushes)
	}
	if !c.Empty() {
		t.Fatalf("combiner should be empty after TakeResidual")
	}
}

func TestTakeResidualResets(t *testing.T) {
	var c Combiner[testOp]
	c.Push(push(1))
	c.TakeResidual()
	// A pop after the wave fired cannot combine with the already-sent push.
	if _, ok := c.Pop(testOp{LocalSeq: 2}); ok {
		t.Fatalf("pop combined with a push that already left the buffer")
	}
}

func TestReductionProperty(t *testing.T) {
	// Property: after any operation sequence, the residual is pop^a push^b
	// with a,b >= 0, combined pairs match LIFO-correctly, and the total
	// number of ops is conserved.
	f := func(opsRaw []bool) bool {
		var c Combiner[testOp]
		var seq int64
		combined := 0
		for _, isPush := range opsRaw {
			seq++
			if isPush {
				c.Push(push(seq))
			} else if _, ok := c.Pop(testOp{LocalSeq: seq}); ok {
				combined += 2
			}
		}
		a, b := c.Counts()
		return combined+a+b == len(opsRaw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRestoreProperty(t *testing.T) {
	// Property: snapshotting mid-sequence and restoring into a fresh
	// combiner is transparent — the restored combiner behaves identically
	// to the original on the remaining operations, and the snapshot itself
	// does not disturb the running combiner.
	f := func(prefix, suffix []bool) bool {
		var orig Combiner[testOp]
		var seq int64
		apply := func(c *Combiner[testOp], isPush bool) (testOp, bool) {
			if isPush {
				c.Push(push(seq))
				return testOp{}, false
			}
			return c.Pop(testOp{LocalSeq: seq})
		}
		for _, isPush := range prefix {
			seq++
			apply(&orig, isPush)
		}
		pops, pushes := orig.Snapshot()
		if a, b := orig.Counts(); len(pops) != a || len(pushes) != b {
			return false // snapshot must mirror the live counts
		}
		var restored Combiner[testOp]
		restored.Restore(pops, pushes)
		for _, isPush := range suffix {
			seq++
			m1, ok1 := apply(&orig, isPush)
			m2, ok2 := apply(&restored, isPush)
			if ok1 != ok2 || m1.LocalSeq != m2.LocalSeq || m1.ReqID != m2.ReqID {
				return false
			}
		}
		p1, q1 := orig.TakeResidual()
		p2, q2 := restored.TakeResidual()
		if len(p1) != len(p2) || len(q1) != len(q2) {
			return false
		}
		for i := range p1 {
			if p1[i].LocalSeq != p2[i].LocalSeq {
				return false
			}
		}
		for i := range q1 {
			if q1[i].LocalSeq != q2[i].LocalSeq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	// Mutating the combiner after Snapshot must not change the snapshot.
	var c Combiner[testOp]
	c.Pop(testOp{LocalSeq: 1})
	c.Push(push(2))
	pops, pushes := c.Snapshot()
	c.Pop(testOp{LocalSeq: 3}) // combines with push 2
	c.TakeResidual()
	if len(pops) != 1 || pops[0].LocalSeq != 1 || len(pushes) != 1 || pushes[0].LocalSeq != 2 {
		t.Fatalf("snapshot changed under mutation: pops=%v pushes=%v", pops, pushes)
	}
}

func TestLIFOMatchingProperty(t *testing.T) {
	// Replaying the combines against a reference stack must agree.
	f := func(opsRaw []bool) bool {
		var c Combiner[testOp]
		var ref []int64 // reference stack of unsent pushes
		var seq int64
		for _, isPush := range opsRaw {
			seq++
			if isPush {
				c.Push(push(seq))
				ref = append(ref, seq)
				continue
			}
			m, ok := c.Pop(testOp{LocalSeq: seq})
			if len(ref) == 0 {
				if ok {
					return false
				}
				continue
			}
			want := ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if !ok || m.LocalSeq != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
