package core

import (
	"net"
	"reflect"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/ldb"
	"skueue/internal/wire"
)

// TestWireRoundTrip pushes one of every registered protocol message
// through the framed gob codec and checks it survives unchanged. This is
// the guard for the wireTypes/messages.go sync invariant and for
// gob-compatibility of the message structs (exported fields only): every
// type in wireTypes must have a row here.
func TestWireRoundTrip(t *testing.T) {
	RegisterWireTypes()

	ref := ldb.Ref{ID: 7, Point: ldb.Point{Label: 1 << 60, Tie: 42}, Kind: ldb.Middle}
	ent := dht.Entry{Pos: 3, Ticket: 1, Elem: dht.Element{Origin: 2, Seq: 9}, Blob: []byte("v")}
	snap := nodeSnapshot{
		Self: ref, Pred: ref, Succ: ref, SibL: ref, SibM: ref, SibR: ref,
		AnchorRole: true,
		Anchor:     anchorBundle{Ast: batch.AnchorState{First: 1, Last: 4, Value: 9, Ticket: 2}, PendChurn: 1, EpochCounter: 3},
		Waiting:    []subBatch{{From: 5, B: batch.Batch{Runs: []int64{1, 2}, J: 1}}},
		Entries:    []dht.Entry{ent},
		Parked:     []dht.ParkedEntry{{Pos: 3, Waiter: dht.Waiter{Requester: 4, ReqID: 8, Bound: 1}}},
		Joiners:    []joinerInfo{{Ref: ref}},
		SibIn:      [3]bool{true, false, true},
	}

	msgs := []any{
		aggregateMsg{From: ref, B: batch.Batch{Runs: []int64{2, 1}, J: 1, L: 2}, WaveSeq: 17},
		serveMsg{Assigns: []batch.RunAssign{{Iv: batch.Interval{Lo: 1, Hi: 3}, ValueBase: 5, Ticket: 2}}, UpdateEpoch: 4, WaveSeq: 17},
		declineMsg{From: ref, WaveSeq: 17},
		routedMsg{RS: ldb.RouteState{Target: 123, BitsLeft: -1}, Inner: joinReq{NewNode: ref}},
		directMsg{Key: 77, Inner: getReq{Pos: 1, Bound: 2, Requester: 3, ReqID: 4}},
		putReq{Pos: 1, Ticket: 2, Elem: ent.Elem, Blob: []byte("payload"), Requester: 3, ReqID: 4, Born: 5, Client: 6, LocalSeq: 7, Value: 8},
		getReq{Pos: 1, Bound: 2, Requester: 3, ReqID: 4},
		getReply{ReqID: 4, Entry: ent},
		putAck{ReqID: 9},
		rejectBatch{B: batch.Batch{Runs: []int64{0, 3}}},
		joinReq{NewNode: ref},
		adoptMsg{Responsible: ref, From: 1, End: 2},
		transferCmd{To: ref, From: 1, End: 2},
		handoverMsg{Entries: []dht.Entry{ent}, Parked: []dht.ParkedEntry{{Pos: 1}}},
		migrateEntry{Ent: ent},
		migrateParked{Pos: 2, W: dht.Waiter{Requester: 1, ReqID: 2, Bound: 3}},
		setNeighbors{Pred: ref, Succ: ref, Epoch: 2},
		setPred{Pred: ref, Epoch: 2},
		introAck{Epoch: 2},
		sibHello{From: ref, Edges: ldb.Edges{Pred: ref, Succ: ref, SuccPartial: true}, Seq: 4},
		ringHello{From: ref, To: ref.Point, Pred: ref, Succ: ref, Partial: true, Up: ref, Seq: 3, Seen: 2},
		updateAck{Epoch: 2},
		updateOver{Epoch: 2},
		leavePermissionReq{From: ref},
		leaveGrant{},
		leaveHandoff{Snap: snap},
		redirectMsg{Old: ref, New: ref},
		absorbMsg{From: ref, Entries: []dht.Entry{ent}, Succ: ref, Waiting: snap.Waiting, Joiners: snap.Joiners, Grants: []ldb.Ref{ref}, GrantedOpen: 1, AnchorRole: true, Anchor: snap.Anchor, Epoch: 2},
		absorbAck{Epoch: 2},
		dissolveQuery{From: 7, Epoch: 2},
		dissolveReply{Epoch: 2, Yes: true},
		phasePassed{Epoch: 2},
		anchorWalk{Anchor: snap.Anchor},
	}

	rows := make(map[reflect.Type]bool, len(msgs))
	for _, m := range msgs {
		rows[reflect.TypeOf(m)] = true
	}
	for _, v := range wireTypes {
		if !rows[reflect.TypeOf(v)] {
			t.Errorf("%T is in wireTypes but has no round-trip row", v)
		}
	}

	a, b := net.Pipe()
	ca, cb := wire.NewConn(a), wire.NewConn(b)
	defer ca.Close()
	defer cb.Close()

	go func() {
		for i, m := range msgs {
			if err := ca.Write(wire.Envelope{From: 1, To: 2, Payload: m}); err != nil {
				t.Errorf("write msg %d (%T): %v", i, m, err)
				ca.Close() // fail the reader instead of leaving it blocked
				return
			}
		}
	}()
	for i, want := range msgs {
		got, err := cb.Read()
		if err != nil {
			t.Fatalf("read msg %d (%T): %v", i, want, err)
		}
		env, ok := got.(wire.Envelope)
		if !ok {
			t.Fatalf("msg %d: got %T, want Envelope", i, got)
		}
		if env.From != 1 || env.To != 2 {
			t.Fatalf("msg %d: envelope header %d->%d", i, env.From, env.To)
		}
		if !reflect.DeepEqual(env.Payload, want) {
			t.Fatalf("msg %d (%T): payload changed:\n got %+v\nwant %+v", i, want, env.Payload, want)
		}
	}
}
