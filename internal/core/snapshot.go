package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// This file is the fail-stop recovery surface of a networked member: an
// exported, gob-encodable image of everything a member must carry across
// a crash — its DHT fragment (the elements and their queue or stack
// positions), topology references, wave buffers, the stack combiner's
// residual word and stage-4 ticket waits, request counters, replay-dedupe
// windows and completion history — plus the constructor that rebuilds a
// Cluster from it. Both modes are supported: queue (§III) and stack
// (§VI) members snapshot and restore alike.
//
// The image is a plain-data cut of the node state rather than the state
// itself: Node fields are unexported and full of simulation-only
// bookkeeping, while the image only holds what a restart needs and what
// the codec (encoding/gob) can carry. Where the runner's own records are
// already plain exported-field data — the operation record (Op) and the
// remembered sub-batch (subBatch) — the image stores them as they are, in
// a slice copy so the encoder, which runs off the runner, never shares a
// backing array with it; only maps and rings are flattened into images.
//
// Consistency model: SnapshotMember must run on the transport's runner
// goroutine, so the image is a point-in-time cut between two message
// deliveries. Paired with the transport's write-ahead acknowledgment
// release (tcp.Options.AckGate — deliveries are only acknowledged to
// their senders once a snapshot covering them is durable), a restored
// member re-receives exactly the messages its snapshot misses and
// re-executes them against the rolled-back state. Messages the member
// SENT after the snapshot may reach peers twice (once pre-crash, once
// re-executed); three mechanisms make the re-execution converge on
// exactly-once application:
//
//   - deterministic re-aggregation: member-mode nodes fold sub-batches in
//     sorted child order (see Node.fire), and the hosting layer re-injects
//     journaled client operations at their original wave boundaries
//     (internal/server's operation journal), so a re-fired wave carries
//     the same batch the crashed incarnation sent and the replayed serve's
//     assignments line up position for position;
//   - receiver-side dedupe: stores recognize replayed PUTs by (position,
//     ticket) and — surviving even consume-then-replay races — by request
//     ID, and remember served GETs by request ID so a re-executed GET
//     cannot park again and steal a reused stack position: one window of
//     request IDs per node holds both (Node.servedReqs). A replayed PUT is
//     re-acknowledged, a replayed GET is swallowed. So a requester parks a
//     reply that outruns the journal replay re-registering its GET
//     (Node.earlyReplies), while it drops a put-ack it does not await: the
//     re-registered PUT is sent again and acked again. Duplicate put-acks
//     are absorbed by per-request accounting (stackDisc.awaitingAcks). A
//     parent drops a restarted child's re-sent aggregate for a wave it
//     already folded (Node.foldedWaves — the original serve, sent or
//     still to come, answers the re-fire) while queueing a child's
//     replayed later waves and folding them one per fire in order
//     (Node.takeWaiting), serves replayed AHEAD of a rolled-back node's
//     wave counter are parked until the matching re-fire
//     (Node.heldServes), and serves for past waves are dropped by
//     WaveSeq;
//   - a shape guard: a serve whose assignments cannot match the node's
//     current processing batch (possible only if replay diverged) is
//     dropped rather than applied, so divergence degrades to a retried
//     wave instead of corrupting position accounting.
//
// See DESIGN.md "Fail-stop recovery" for the full argument.

// ErrNotQuiescent reports a snapshot attempt while churn is in progress
// at this member: join/leave handshakes hold multi-message state that the
// image does not model. Callers skip the interval and retry.
var ErrNotQuiescent = errors.New("core: member is not churn-quiescent")

// GetImage is one in-flight GET issued by the node. Restoring it re-arms
// the stage-4 wait: the node keeps counting the GET as outstanding until
// the replayed (or re-executed) reply arrives.
type GetImage struct {
	ReqID    uint64
	Born     int64
	LocalSeq int64
	Value    int64
}

// CombinerImage is the stack combiner's buffered residual word (§VI):
// the not-yet-sent operations in their reduced POP^a PUSH^b form. Pops
// carry no element; pushes carry their element and blob.
type CombinerImage struct {
	Pops   []Op
	Pushes []Op
}

// FoldedWaveImage is one entry of a per-child wave cursor: the folded-wave
// cursor, or the wave a child's decline carried.
type FoldedWaveImage struct {
	From    transport.NodeID
	WaveSeq int64
}

// EarlyReplyImage is one parked link-replayed GET reply (member mode):
// it arrived before the journal replay re-registered its GET, and its
// delivery cursor has already advanced, so it exists nowhere but here.
type EarlyReplyImage struct {
	ReqID uint64
	Entry dht.Entry
}

// NodeImage captures one virtual node.
type NodeImage struct {
	Self ldb.Ref
	// Hood is the node's neighbourhood, with its pair number and what its
	// ring neighbours and siblings last said. A restarted node keeps it: its
	// neighbours' numbers and confirmations go on from there.
	Hood     ldb.Neighborhood
	ClientID int32

	Anchor bool
	Ast    batch.AnchorState

	NextElemSeq  int64
	NextLocalSeq int64
	WaveSeq      int64
	// Standing is the node's standing with its parent (active, served or
	// idle) and IdleKids the children that declined, sorted by child. A
	// parent restored without them would wait for reports that idle
	// children do not send.
	Standing uint8
	IdleKids []FoldedWaveImage

	Pending []Op
	Waiting []subBatch
	// InFlight is the node's waves fired and not yet served, oldest first.
	InFlight []wave

	// Combiner is the stack-mode residual word; empty in queue mode.
	Combiner CombinerImage
	// AwaitingAcks lists the request IDs of the node's unacknowledged
	// PUTs. With Gets it re-arms the §VI stage-4 completion wait: the
	// restored node stays gated until the replayed acknowledgments and
	// replies drain both.
	AwaitingAcks []uint64

	Entries []dht.Entry
	Parked  []dht.ParkedEntry
	Gets    []GetImage

	// ServedReqs is the node's replay-dedupe window: request IDs of
	// recently applied PUTs and served GETs, oldest first. It survives the
	// restart so a member that crashes can still recognize duplicates
	// produced by an earlier crash of a peer.
	ServedReqs []uint64
	// FoldedWaves is the per-child cursor of waves already folded into
	// a processing batch, which recognizes a restarted child's re-sent
	// aggregates (see Node.foldedWaves).
	FoldedWaves []FoldedWaveImage
	// EarlyReplies are the parked replies of Node.earlyReplies, sorted by
	// request ID. A snapshot cut inside a restart-replay window must carry
	// them: their link delivery cursors have already advanced, so dropping
	// them here would lose the completions for good on a second crash.
	EarlyReplies []EarlyReplyImage

	LastEpoch    int64
	EpochCounter int64
}

// ProcessImage captures one process-table entry.
type ProcessImage struct {
	ID      int32
	Nodes   [3]transport.NodeID
	Joining bool
	Left    bool
}

// MemberSnapshot is the full persistent image of one networked member.
type MemberSnapshot struct {
	Index    int32
	Procs    []ProcessImage
	Nodes    []NodeImage
	ReqSeq   uint64
	Issued   int64
	Finished int64
	History  []seqcheck.Completion
}

// SnapshotStats summarizes the client-visible operations a snapshot holds
// in flight, for diagnostics and for tests that need to assert a crash
// was taken mid-traffic (e.g. with a non-empty combiner residual).
type SnapshotStats struct {
	// PendingOps counts buffered, not-yet-fired operations outside the
	// combiner (queue mode, or stack mode with combining disabled).
	PendingOps int
	// CombinerPops and CombinerPushes are the residual word shape summed
	// over the member's nodes (stack mode).
	CombinerPops   int
	CombinerPushes int
	// InFlightOps counts own operations inside waves in flight (fired, not
	// yet served).
	InFlightOps int
	// PendingGets counts GETs awaiting their reply.
	PendingGets int
	// IdleNodes counts nodes that have declined; ServedNodes counts nodes
	// cut between a serve and the decline answering it (or still waiting
	// for a child to decline first).
	IdleNodes   int
	ServedNodes int
	// DeepestPipeline is the most waves one node had in flight.
	DeepestPipeline int
}

// Stats computes the in-flight operation summary of the image.
func (s *MemberSnapshot) Stats() SnapshotStats {
	var st SnapshotStats
	for _, img := range s.Nodes {
		st.PendingOps += len(img.Pending)
		st.CombinerPops += len(img.Combiner.Pops)
		st.CombinerPushes += len(img.Combiner.Pushes)
		for _, w := range img.InFlight {
			st.InFlightOps += len(w.Own)
		}
		st.DeepestPipeline = max(st.DeepestPipeline, len(img.InFlight))
		st.PendingGets += len(img.Gets)
		switch standing(img.Standing) {
		case idle:
			st.IdleNodes++
		case served:
			st.ServedNodes++
		}
	}
	return st
}

// churnQuiet reports whether the node's churn state is trivial: enough so
// to omit it from the image (anything mid-handshake refuses the snapshot),
// and enough for the node to stand idle (a join or leave in progress needs
// its waves).
func (n *Node) churnQuiet() bool {
	c := &n.churn
	return !c.joining && !c.leaving && !c.departed && !c.isReplacement &&
		!c.updatePhase && !c.leaveReqSent && !c.rangeValid &&
		len(c.routedHold) == 0 && len(c.heldTransfers) == 0 &&
		len(c.heldHandovers) == 0 && len(c.heldDirects) == 0 &&
		len(c.joiners) == 0 &&
		len(c.grantsPending) == 0 && c.grantedOpen == 0 &&
		len(c.buffer) == 0 && len(c.heldQueries) == 0 &&
		len(c.heldAbsorbs) == 0 && !c.relayVia.Valid()
}

// SnapshotMember captures this member's persistent image, in queue and
// stack mode alike: the stack's residual combiner word, anchor-side
// tickets (inside batch.AnchorState) and pending stage-4 ticket waits
// are part of the image. It must run on the transport's runner goroutine
// (tcp.Peer.DoSync), where no handler is concurrently mutating node
// state. It fails with ErrNotQuiescent while any local node is inside a
// join/leave handshake.
//
//skueue:snapshot-capture Cluster Node
func (cl *Cluster) SnapshotMember() (*MemberSnapshot, error) {
	if !cl.memberMode() {
		return nil, errors.New("core: only networked members snapshot (the simulator has no crashes)")
	}
	snap := &MemberSnapshot{
		Index:    int32(cl.reqBase>>ReqIDMemberShift) - 1,
		ReqSeq:   cl.reqSeq,
		Issued:   cl.issued,
		Finished: cl.finished,
	}
	for _, p := range cl.procs {
		snap.Procs = append(snap.Procs, ProcessImage{ID: p.ID, Nodes: p.Nodes, Joining: p.Joining, Left: p.Left})
	}
	ids := make([]transport.NodeID, 0, len(cl.nodes))
	for id := range cl.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := cl.nodes[id]
		if !n.churnQuiet() {
			return nil, fmt.Errorf("%w: node %v mid-churn", ErrNotQuiescent, n.self)
		}
		if len(n.heldServes) > 0 {
			// A held serve is delivered-but-unapplied link state the image
			// does not model: its delivery cursor already advanced, so a
			// snapshot taken now could release the ack and lose the serve
			// for good. Held serves drain within a wave; skip and retry.
			return nil, fmt.Errorf("%w: node %v holds replayed serves", ErrNotQuiescent, n.self)
		}
		if len(n.script) > 0 {
			// The fires still to repeat are known only from a log older
			// than this image would be; it is compacted away once the image
			// is durable. They repeat within a few waves; skip and retry.
			return nil, fmt.Errorf("%w: node %v repeats logged fires", ErrNotQuiescent, n.self)
		}
		img := NodeImage{
			Self:         n.self,
			Hood:         n.hood,
			ClientID:     n.clientID,
			Anchor:       n.anchorRole,
			Ast:          n.ast.Clone(), // a copy: the image is encoded off the runner while the anchor keeps assigning
			NextElemSeq:  n.nextElemSeq,
			NextLocalSeq: n.nextLocalSeq,
			WaveSeq:      n.waveSeq,
			Standing:     uint8(n.standing),
			IdleKids:     waveCursorImage(n.idleKids),
			Pending:      slices.Clone(n.pending),
			Waiting:      slices.Clone(n.waiting),
			InFlight:     cloneWaves(n.inFlight),
			Entries:      n.store.Entries(),
			LastEpoch:    n.churn.lastEpoch,
			EpochCounter: n.churn.epochCounter,
		}
		// Strategy-private state (stack: combiner residual, unacknowledged
		// PUT IDs) is captured by the mode strategy; the image fields stay
		// zero for the other modes.
		n.disc.capture(n, &img)
		img.ServedReqs = n.servedReqs.entries()
		img.FoldedWaves = waveCursorImage(n.foldedWaves)
		for reqID, reply := range n.earlyReplies {
			img.EarlyReplies = append(img.EarlyReplies, EarlyReplyImage{ReqID: reqID, Entry: reply.Entry})
		}
		sort.Slice(img.EarlyReplies, func(i, j int) bool { return img.EarlyReplies[i].ReqID < img.EarlyReplies[j].ReqID })
		img.Parked = n.store.ParkedEntries()
		reqIDs := make([]uint64, 0, len(n.pendingGets))
		for reqID := range n.pendingGets {
			reqIDs = append(reqIDs, reqID)
		}
		sort.Slice(reqIDs, func(i, j int) bool { return reqIDs[i] < reqIDs[j] })
		for _, reqID := range reqIDs {
			gc := n.pendingGets[reqID]
			img.Gets = append(img.Gets, GetImage{ReqID: reqID, Born: gc.born, LocalSeq: gc.localSeq, Value: gc.value})
		}
		snap.Nodes = append(snap.Nodes, img)
	}
	snap.History = append(snap.History, cl.hist.Ops...)
	return snap, nil
}

// cloneWaves copies an in-flight list down to its sub-batch and operation
// slices, so that the image shares no backing array with the runner.
func cloneWaves(ws []wave) []wave {
	out := slices.Clone(ws)
	for i := range out {
		out[i].Subs = slices.Clone(out[i].Subs)
		out[i].Own = slices.Clone(out[i].Own)
	}
	return out
}

// waveCursorImage flattens a per-child wave cursor, sorted by child.
func waveCursorImage(m map[transport.NodeID]int64) []FoldedWaveImage {
	var out []FoldedWaveImage
	for from, wave := range m {
		out = append(out, FoldedWaveImage{From: from, WaveSeq: wave})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// restoreWaveCursor is the inverse of waveCursorImage; an empty image
// restores the nil map a fresh node has.
func restoreWaveCursor(img []FoldedWaveImage) map[transport.NodeID]int64 {
	if len(img) == 0 {
		return nil
	}
	m := make(map[transport.NodeID]int64, len(img))
	for _, e := range img {
		m[e.From] = e.WaveSeq
	}
	return m
}

// RestoreMember rebuilds the Cluster fragment of a member restarting
// after a fail-stop crash: nodes are re-registered at their snapshotted
// IDs with their snapshotted topology, DHT fragment and wave buffers, so
// the member resumes exactly where the image was cut. The transport must
// be restored to the matching state (tcp.Peer.RestoreState) so peers
// replay everything the image misses.
//
//skueue:snapshot-restore Cluster Node
func RestoreMember(cfg Config, snap *MemberSnapshot, net transport.Network) (*Cluster, error) {
	reg, ok := net.(transport.Registry)
	if !ok {
		return nil, errors.New("core: member backend does not support fixed-address registration")
	}
	if snap.Index < 0 {
		return nil, fmt.Errorf("core: invalid member index %d in snapshot", snap.Index)
	}
	RegisterWireTypes()
	cl := &Cluster{
		cfg:      cfg,
		net:      net,
		reg:      reg,
		labels:   xrand.NewHasher(cfg.Seed, "labels"),
		keyHash:  xrand.NewHasher(cfg.Seed, "positions"),
		nodes:    make(map[transport.NodeID]*Node),
		hist:     &seqcheck.History{},
		reqBase:  uint64(snap.Index+1) << ReqIDMemberShift,
		reqSeq:   snap.ReqSeq,
		issued:   snap.Issued,
		finished: snap.Finished,
		nextProc: int32(cfg.Processes),
	}
	cl.hist.Ops = append(cl.hist.Ops, snap.History...)
	for _, pi := range snap.Procs {
		cl.procs = append(cl.procs, &Process{ID: pi.ID, Nodes: pi.Nodes, Joining: pi.Joining, Left: pi.Left})
	}
	for _, img := range snap.Nodes {
		n := &Node{
			cl:           cl,
			disc:         cl.newDiscipline(),
			self:         img.Self,
			clientID:     img.ClientID,
			hood:         img.Hood,
			anchorRole:   img.Anchor,
			ast:          img.Ast,
			nextElemSeq:  img.NextElemSeq,
			nextLocalSeq: img.NextLocalSeq,
			waveSeq:      img.WaveSeq,
			standing:     standing(img.Standing),
			idleKids:     restoreWaveCursor(img.IdleKids),
			foldedWaves:  restoreWaveCursor(img.FoldedWaves),
			pending:      slices.Clone(img.Pending),
			waiting:      slices.Clone(img.Waiting),
			store:        dht.NewStore(),
			inFlight:     cloneWaves(img.InFlight),
			pendingGets:  make(map[uint64]getCtx),
		}
		n.disc.restoreImage(n, &img)
		n.servedReqs.restore(img.ServedReqs)
		if len(img.EarlyReplies) > 0 {
			n.earlyReplies = make(map[uint64]getReply, len(img.EarlyReplies))
			for _, er := range img.EarlyReplies {
				n.earlyReplies[er.ReqID] = getReply{ReqID: er.ReqID, Entry: er.Entry}
			}
		}
		for _, ent := range img.Entries {
			n.store.Insert(ent)
		}
		for _, pk := range img.Parked {
			n.store.Park(pk.Pos, pk.Waiter)
		}
		for _, g := range img.Gets {
			n.pendingGets[g.ReqID] = getCtx{born: g.Born, localSeq: g.LocalSeq, value: g.Value}
		}
		n.churn.joining = false
		n.churn.relayVia = ldb.Ref{ID: transport.None}
		n.churn.lastEpoch = img.LastEpoch
		n.churn.epochCounter = img.EpochCounter
		cl.nodes[img.Self.ID] = n
		reg.Register(img.Self.ID, n)
	}
	return cl, nil
}
