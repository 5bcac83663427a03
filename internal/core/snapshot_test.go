package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// memNet is a minimal single-threaded member-mode backend: a registry and
// a FIFO delivery queue driven explicitly by the test. It stands in for
// the TCP peer so snapshot/restore can be exercised without sockets. With
// interleave set, delivery keeps only what a set of TCP links keeps: order
// between one pair of nodes, none across pairs.
type memNet struct {
	t     *testing.T
	nodes map[transport.NodeID]transport.Handler
	ctxs  map[transport.NodeID]*transport.Context
	order []transport.NodeID
	queue []memEnv
	sent  int // frames handed to Send so far
	now   int64
	rng   *xrand.RNG
	// interleave, when set, picks the next delivery among the oldest
	// pending frame of every (sender, receiver) pair.
	interleave *xrand.RNG
	spawned    int
}

type memEnv struct {
	from, to transport.NodeID
	payload  any
}

func newMemNet(t *testing.T) *memNet {
	return &memNet{
		t:     t,
		nodes: make(map[transport.NodeID]transport.Handler),
		ctxs:  make(map[transport.NodeID]*transport.Context),
		rng:   xrand.New(1),
	}
}

func (m *memNet) Send(from, to transport.NodeID, payload any) {
	m.sent++
	m.queue = append(m.queue, memEnv{from, to, payload})
}

// Spawn places a leave replacement in an ID range no process triad uses.
func (m *memNet) Spawn(h transport.Handler) transport.NodeID {
	m.spawned++
	id := transport.NodeID(1<<20 + m.spawned)
	m.Register(id, h)
	return id
}

// pop takes the next frame to deliver.
func (m *memNet) pop() memEnv {
	i := 0
	if m.interleave != nil {
		type pair struct{ from, to transport.NodeID }
		seen := make(map[pair]bool)
		var heads []int
		for j, e := range m.queue {
			if p := (pair{e.from, e.to}); !seen[p] {
				seen[p] = true
				heads = append(heads, j)
			}
		}
		i = heads[m.interleave.Intn(len(heads))]
	}
	e := m.queue[i]
	m.queue = append(m.queue[:i], m.queue[i+1:]...)
	return e
}
func (m *memNet) Now() int64                       { return m.now }
func (m *memNet) Rand() *xrand.RNG                 { return m.rng }
func (m *memNet) StopTimeouts(id transport.NodeID) {}
func (m *memNet) Deactivate(id transport.NodeID)   { delete(m.nodes, id) }
func (m *memNet) Register(id transport.NodeID, h transport.Handler) {
	ctx := transport.NewContext(m, id)
	m.nodes[id] = h
	m.ctxs[id] = &ctx
	m.order = append(m.order, id)
	h.OnInit(&ctx)
}

// step runs one round: TIMEOUT everywhere, then drain deliveries.
func (m *memNet) step() {
	m.now++
	for _, id := range m.order {
		if h, ok := m.nodes[id]; ok {
			h.OnTimeout(m.ctxs[id])
		}
	}
	for len(m.queue) > 0 {
		e := m.pop()
		if h, ok := m.nodes[e.to]; ok {
			h.OnMessage(m.ctxs[e.to], e.from, e.payload)
		}
	}
}

func (m *memNet) drain(cl *Cluster, maxRounds int) {
	for i := 0; i < maxRounds && cl.Finished() < cl.Issued(); i++ {
		m.step()
	}
	if cl.Finished() < cl.Issued() {
		m.t.Fatalf("cluster did not drain: %d/%d", cl.Finished(), cl.Issued())
	}
}

// TestMemberSnapshotRoundTrip drives a member-mode cluster through real
// traffic, snapshots it, pushes the image through the gob codec (the
// on-disk representation), restores a fresh cluster from it, and checks
// the restored member both preserves the old state (elements, history,
// each node's neighbourhood) and keeps serving new operations consistently.
func TestMemberSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Processes: 2, Seed: 7}
	net1 := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0, 1}, net1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cl.EnqueueBlob(cl.Client(i%2), []byte{byte('a' + i)})
	}
	net1.drain(cl, 200)
	cl.Dequeue(cl.Client(0))
	cl.Dequeue(cl.Client(1))
	net1.drain(cl, 200)

	snap, err := cl.SnapshotMember()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var decoded MemberSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}

	net2 := newMemNet(t)
	cl2, err := RestoreMember(cfg, &decoded, net2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := cl2.TotalStored(), cl.TotalStored(); got != want {
		t.Fatalf("restored member stores %d elements, want %d", got, want)
	}
	if got, want := len(cl2.History().Ops), len(cl.History().Ops); got != want {
		t.Fatalf("restored history has %d ops, want %d", got, want)
	}
	if cl2.Issued() != cl.Issued() || cl2.Finished() != cl.Finished() {
		t.Fatalf("restored counters %d/%d, want %d/%d", cl2.Finished(), cl2.Issued(), cl.Finished(), cl.Issued())
	}
	for id, n := range cl.nodes {
		n2, ok := cl2.nodes[id]
		if !ok {
			t.Fatalf("node %v not restored", n.self)
		}
		if n2.hood != n.hood {
			t.Fatalf("node %v restored with neighbourhood %+v, want %+v", n.self, n2.hood, n.hood)
		}
	}

	// The restored member keeps serving: drain the remaining elements and
	// verify the whole pre+post history is sequentially consistent.
	for i := 0; i < 4; i++ {
		cl2.Dequeue(cl2.Client(i % 2))
	}
	net2.drain(cl2, 400)
	if err := cl2.CheckConsistency(); err != nil {
		t.Fatalf("restored member history inconsistent: %v", err)
	}
}

// TestMemberSnapshotStackRoundTrip is the stack-mode twin: the snapshot
// is taken with a NON-EMPTY combiner residual (a buffered pop at one
// node, buffered pushes at another) so the §VI word-combining state must
// survive the gob round trip and the restored member must complete the
// buffered operations exactly once.
func TestMemberSnapshotStackRoundTrip(t *testing.T) {
	cfg := Config{Processes: 2, Seed: 11, Mode: batch.Stack}
	net1 := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0, 1}, net1)
	if err != nil {
		t.Fatal(err)
	}
	// Settled traffic first, so the DHT fragment is non-trivial.
	for i := 0; i < 4; i++ {
		cl.EnqueueBlob(cl.Client(i%2), []byte{byte('a' + i)})
	}
	net1.drain(cl, 300)

	// Mid-flight state: a pop buffered at process 0 (nothing local to
	// combine with), pushes buffered at process 1.
	cl.Dequeue(cl.Client(0))
	cl.EnqueueBlob(cl.Client(1), []byte{'x'})
	cl.EnqueueBlob(cl.Client(1), []byte{'y'})

	snap, err := cl.SnapshotMember()
	if err != nil {
		t.Fatalf("stack snapshot: %v", err)
	}
	st := snap.Stats()
	if st.CombinerPops != 1 || st.CombinerPushes != 2 {
		t.Fatalf("snapshot residual = %d pops, %d pushes; want 1, 2", st.CombinerPops, st.CombinerPushes)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var decoded MemberSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}

	net2 := newMemNet(t)
	cl2, err := RestoreMember(cfg, &decoded, net2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := cl2.TotalStored(), cl.TotalStored(); got != want {
		t.Fatalf("restored member stores %d elements, want %d", got, want)
	}
	// The buffered residual completes after the restart: the pop and both
	// pushes were issued but unfinished at the cut.
	net2.drain(cl2, 400)
	if cl2.Finished() != cl2.Issued() {
		t.Fatalf("restored member finished %d/%d", cl2.Finished(), cl2.Issued())
	}
	// Drain the structure and verify Definition 1 end to end.
	remaining := cl2.TotalStored()
	for i := 0; i < remaining; i++ {
		cl2.Dequeue(cl2.Client(i % 2))
	}
	net2.drain(cl2, 600)
	if err := cl2.CheckConsistency(); err != nil {
		t.Fatalf("restored stack history inconsistent: %v", err)
	}
	if got := cl2.TotalStored(); got != 0 {
		t.Fatalf("%d elements left after full drain", got)
	}
}

// roundTrip pushes a snapshot through the gob codec (the on-disk
// representation) so the restored state went through exactly what a
// restart sees.
func roundTrip(t *testing.T, snap *MemberSnapshot) *MemberSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var decoded MemberSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &decoded
}

// TestSnapshotCarriesEarlyReplies is the regression test for a recovery
// gap the statecomplete analyzer surfaced: a GET reply parked in
// Node.earlyReplies during a restart-replay window (delivered, cursor
// advanced, GET not yet re-registered by the journal replay) was not
// part of the member image. A snapshot cut in that window followed by a
// second crash lost the completion for good.
func TestSnapshotCarriesEarlyReplies(t *testing.T) {
	cfg := Config{Processes: 1, Seed: 3}
	net1 := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0}, net1)
	if err != nil {
		t.Fatal(err)
	}
	// Park a reply the way the restart-replay window does: the link
	// replayed a getReply whose GET has not been re-injected yet.
	var n *Node
	for _, cand := range cl.nodes {
		n = cand
		break
	}
	ent := dht.Entry{Pos: 7, Ticket: 1, Elem: dht.Element{}, Blob: []byte("held")}
	n.earlyReplies = map[uint64]getReply{42: {ReqID: 42, Entry: ent}}

	snap, err := cl.SnapshotMember()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	net2 := newMemNet(t)
	cl2, err := RestoreMember(cfg, roundTrip(t, snap), net2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	n2 := cl2.nodes[n.self.ID]
	if n2 == nil {
		t.Fatalf("restored cluster lost node %v", n.self.ID)
	}
	got, ok := n2.earlyReplies[42]
	if !ok {
		t.Fatalf("restored node dropped the parked early reply; a second crash would lose the completion")
	}
	if got.Entry.Pos != ent.Pos || !bytes.Equal(got.Entry.Blob, ent.Blob) {
		t.Fatalf("restored early reply = %+v, want entry %+v", got, ent)
	}
}

// TestStrayPutAckIsReacked covers the two halves of why a requester needs
// no park for put-acks around a fail-stop restart. The owner answers a
// replayed PUT whose element was already consumed with a fresh ack and
// stores nothing (the request-ID window, not the store, recognizes it).
// The requester drops an ack it does not await: its outstanding work and
// the hosting layer's callback stay as they were, and the PUT that the
// journal replay registers again is sent again and acked again.
func TestStrayPutAckIsReacked(t *testing.T) {
	cfg := Config{Processes: 1, Seed: 5, Mode: batch.Stack}
	net := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0}, net)
	if err != nil {
		t.Fatal(err)
	}
	client := cl.Client(0)
	var acked []uint64
	cl.SetOnPutAck(func(reqID uint64) { acked = append(acked, reqID) })
	putID := cl.EnqueueBlob(client, []byte("x"))
	net.drain(cl, 100)
	var owner *Node
	var ent dht.Entry
	for _, n := range cl.nodes {
		if ents := n.store.Entries(); len(ents) == 1 {
			owner, ent = n, ents[0]
		}
	}
	if owner == nil {
		t.Fatalf("pushed element stored at no node")
	}
	cl.Dequeue(client)
	net.drain(cl, 100)
	if cl.TotalStored() != 0 || len(acked) != 1 {
		t.Fatalf("after push and pop: %d stored, acks %v; want 0 stored, one ack", cl.TotalStored(), acked)
	}

	// The owner: a replayed PUT for the consumed element is re-acked, and
	// not stored again.
	owner.handleDHT(net.ctxs[owner.self.ID], putReq{
		Pos: ent.Pos, Ticket: ent.Ticket, Elem: ent.Elem, Blob: ent.Blob,
		Requester: client, ReqID: putID,
	})
	if owner.store.Len() != 0 {
		t.Fatalf("owner stored the replayed PUT of a consumed element")
	}
	reacked := false
	for _, e := range net.queue {
		if ack, ok := e.payload.(putAck); ok && e.to == client && ack.ReqID == putID {
			reacked = true
		}
	}
	if !reacked {
		t.Fatalf("owner did not re-ack the replayed PUT %d (queued: %v)", putID, net.queue)
	}

	// The requester: with one PUT awaited, the re-ack (for a PUT it no
	// longer awaits) and an ack for an ID it never issued are dropped.
	n := cl.nodes[client]
	disc := n.disc.(*stackDisc)
	awaited := putID + 100
	disc.trackPut(n, awaited)
	net.step()
	n.OnMessage(net.ctxs[client], owner.self.ID, putAck{ReqID: putID + 200})
	if got := disc.outstanding(n); got != 1 || len(acked) != 1 {
		t.Fatalf("stray acks changed the requester: outstanding %d (want 1), callbacks %v (want [%d])", got, acked, putID)
	}
	n.OnMessage(net.ctxs[client], owner.self.ID, putAck{ReqID: awaited})
	if got := disc.outstanding(n); got != 0 || len(acked) != 2 || acked[1] != awaited {
		t.Fatalf("awaited ack: outstanding %d (want 0), callbacks %v (want [%d %d])", got, acked, putID, awaited)
	}
}

// TestSnapshotDoesNotAliasAnchorLevels: the member host encodes the image
// off the runner while the anchor keeps assigning, and the heap's
// per-level windows are the one part of AnchorState behind a pointer. The
// image must hold a copy: waves assigned after the cut may not show
// through it (under -race the shared slice was a reported data race).
func TestSnapshotDoesNotAliasAnchorLevels(t *testing.T) {
	cfg := Config{Mode: batch.Heap, HeapLevels: 3, Processes: 1, Seed: 3}
	net := newMemNet(t)
	cl, err := NewMember(cfg, 0, []int32{0}, net)
	if err != nil {
		t.Fatal(err)
	}
	client := cl.Client(0)
	for l := int32(0); l < 3; l++ {
		cl.EnqueuePriBlob(client, l, nil)
	}
	net.drain(cl, 100)

	snap, err := cl.SnapshotMember()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var img *NodeImage
	for i := range snap.Nodes {
		if snap.Nodes[i].Anchor {
			img = &snap.Nodes[i]
		}
	}
	if img == nil || len(img.Ast.Levels) != 3 {
		t.Fatalf("no anchor image with three level windows in the snapshot")
	}
	cut := append([]batch.LevelWindow(nil), img.Ast.Levels...)

	for l := int32(0); l < 3; l++ {
		cl.EnqueuePriBlob(client, l, nil)
	}
	net.drain(cl, 100)
	for l, w := range img.Ast.Levels {
		if w != cut[l] {
			t.Fatalf("level %d of the image moved from %+v to %+v after the cut: the snapshot aliases the live anchor state", l, cut[l], w)
		}
	}
}
