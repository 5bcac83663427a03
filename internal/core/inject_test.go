package core

import (
	"testing"

	"skueue/internal/seqcheck"
)

// TestNextReqIDHasNoSideEffect: reserving a name moves nothing — not the
// counter, not the issue count — however often it is asked; the ID is
// consumed only by the Inject that buffers an operation under it.
func TestNextReqIDHasNoSideEffect(t *testing.T) {
	cl, err := NewMember(Config{Processes: 2, Seed: 7}, 3, []int32{0, 1}, newMemNet(t))
	if err != nil {
		t.Fatal(err)
	}
	id := cl.NextReqID()
	if ReqIDMember(id) != 4 || ReqIDSeq(id) != 1 {
		t.Fatalf("first ID of member 3 = tag %d seq %d, want tag 4 seq 1", ReqIDMember(id), ReqIDSeq(id))
	}
	for i := 0; i < 3; i++ {
		if again := cl.NextReqID(); again != id {
			t.Fatalf("NextReqID moved without an injection: %d then %d", id, again)
		}
	}
	if cl.ReqSeq() != 0 || cl.Issued() != 0 {
		t.Fatalf("NextReqID had a side effect: ReqSeq=%d Issued=%d", cl.ReqSeq(), cl.Issued())
	}
	cl.Inject(cl.Client(0), Op{ReqID: id})
	if cl.ReqSeq() != 1 || cl.Issued() != 1 {
		t.Fatalf("Inject under the reserved ID: ReqSeq=%d Issued=%d, want 1 and 1", cl.ReqSeq(), cl.Issued())
	}
	if next := cl.NextReqID(); next != id+1 {
		t.Fatalf("NextReqID after the injection = %d, want %d", next, id+1)
	}
	if got := cl.Dequeue(cl.Client(1)); got != id+1 {
		t.Fatalf("the wrapper injected under %d, want the reserved %d", got, id+1)
	}
}

// TestInjectCompletesCombinedPairBeforeReturning is the reason hosts
// register before they inject: a stack pop injected onto a buffered push
// completes both on the spot (§VI), so onComplete fires for the push and
// then the pop — under the IDs their hosts reserved — while Inject is still
// on the stack.
func TestInjectCompletesCombinedPairBeforeReturning(t *testing.T) {
	cl := stackCluster(t, 3, 2)
	c := cl.Client(0)
	registered := map[uint64]bool{}
	var seen []seqcheck.Completion
	cl.SetOnComplete(func(comp seqcheck.Completion) {
		if !registered[comp.ReqID] {
			t.Errorf("completion of %d fired before its host registered it", comp.ReqID)
		}
		seen = append(seen, comp)
	})

	push := cl.NextReqID()
	registered[push] = true
	cl.Inject(c, Op{ReqID: push, Blob: []byte("v")})
	if len(seen) != 0 {
		t.Fatalf("a lone push completed inside Inject: %+v", seen)
	}
	pop := cl.NextReqID()
	if pop == push {
		t.Fatal("the push did not consume its reserved ID")
	}
	registered[pop] = true
	cl.Inject(c, Op{ReqID: pop, IsDeq: true})
	// No Step has run: whatever is in seen was delivered inside Inject.
	if len(seen) != 2 {
		t.Fatalf("%d completions delivered before Inject returned, want the push and the pop", len(seen))
	}
	if seen[0].ReqID != push || seen[0].Kind != seqcheck.Push {
		t.Fatalf("first completion = %+v, want the push under %d", seen[0], push)
	}
	if seen[1].ReqID != pop || seen[1].Kind != seqcheck.Pop || seen[1].Bottom || string(seen[1].Blob) != "v" {
		t.Fatalf("second completion = %+v, want the pop under %d carrying the push's payload", seen[1], pop)
	}
	if cl.Finished() != 2 || cl.Issued() != 2 {
		t.Fatalf("finished %d of %d, want 2 of 2", cl.Finished(), cl.Issued())
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectUnderOlderIDNeverLowersCounter is the restart case: a journaled
// operation re-injected under its original ID, after the counter was
// already advanced past it, keeps its ID and leaves the counter alone —
// while an ID beyond the counter raises it, so no later name can collide.
func TestInjectUnderOlderIDNeverLowersCounter(t *testing.T) {
	cl, err := NewMember(Config{Processes: 1, Seed: 5}, 0, []int32{0}, newMemNet(t))
	if err != nil {
		t.Fatal(err)
	}
	base := cl.NextReqID() &^ (1<<ReqIDMemberShift - 1)
	cl.AdvanceReqSeq(100)
	cl.Inject(cl.Client(0), Op{ReqID: base | 40, Blob: []byte("old")})
	if cl.ReqSeq() != 100 {
		t.Fatalf("injecting under sequence 40 moved the counter from 100 to %d", cl.ReqSeq())
	}
	cl.Inject(cl.Client(0), Op{ReqID: base | 250, IsDeq: true})
	if cl.ReqSeq() != 250 {
		t.Fatalf("injecting under sequence 250 left the counter at %d", cl.ReqSeq())
	}
	if next := cl.NextReqID(); next != base|251 {
		t.Fatalf("NextReqID = %#x, want %#x", next, base|251)
	}
	pending := cl.nodes[cl.Client(0)].pending
	if len(pending) != 2 || pending[0].ReqID != base|40 || pending[1].ReqID != base|250 {
		t.Fatalf("buffered operations lost their names: %+v", pending)
	}
}
