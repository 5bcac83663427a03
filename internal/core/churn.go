package core

import (
	"fmt"
	"slices"
	"sort"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/fixpoint"
	"skueue/internal/ldb"
	"skueue/internal/transport"
)

// This file implements §IV of the paper: JOIN and LEAVE, handled lazily
// through responsible nodes, plus the update phase during which joining
// nodes are spliced into the ring and leave replacements are absorbed by
// their left neighbours.
//
// Implementation notes (see DESIGN.md §8 for the substitution rationale):
//
//   - A departed node stays in the simulation as a pure forwarder instead
//     of executing the paper's per-edge acknowledgment drain; the
//     observable post-condition — no message addressed to it is ever lost
//     — is the same, and the permission/priority handshake is implemented
//     in full.
//   - A leaving node first drains its own client state (buffered and
//     in-flight requests) through normal waves before handing off; the
//     paper's node does the equivalent by forwarding and acknowledging
//     until quiescent. Child sub-batches, DHT data, joiners and
//     responsibilities transfer with the handoff.
//   - Update phases are numbered (epochs) so that duplicated or straggling
//     phase-control messages from an earlier phase cannot corrupt a later
//     one under asynchrony.

// joinerInfo is a joining node this node is responsible for (§IV-A), with
// End, the end of the key range the joiner was told it owns from its own
// point (adoptMsg, shrunk by a transferCmd). The fields are exported because
// joiner lists ride in handoff and absorb messages, which cross the wire
// under the TCP transport.
type joinerInfo struct {
	Ref ldb.Ref
	End fixpoint.Frac
}

// anchorBundle is the anchor's transferable role state: the position
// window and value counter (§III-D, §V) and the update-phase epoch counter.
type anchorBundle struct {
	Ast          batch.AnchorState
	EpochCounter int64
}

// churnState bundles all join/leave/update-phase state of a node.
type churnState struct {
	// Joining side: set while this node awaits integration.
	joining  bool
	relayVia ldb.Ref // the responsible node relaying for us
	// routedHold buffers routed messages that reach us before we know our
	// ring neighbours (the paper's "wait until a closer node is known").
	routedHold []routedMsg
	// rangeFrom/rangeEnd is the key range a joiner owns before it is part
	// of the ring; transferCmds shrink it when newer joiners split it.
	rangeFrom, rangeEnd fixpoint.Frac
	rangeValid          bool
	// A joiner learns its range from adoptMsg; whatever its responsible
	// node sent for that range can outrun the adoption under asynchrony and
	// waits here until it arrives.
	heldTransfers []transferCmd
	heldHandovers []handoverMsg
	heldDirects   []directMsg

	// Responsible side.
	joiners []joinerInfo // joining nodes hanging off us, sorted by point

	// Leaving side.
	leaving       bool
	leaveReqSent  bool
	leaveGranted  bool
	grantsPending []ldb.Ref // permission requests we have not answered yet
	grantedOpen   int       // grants given whose leaver has not departed yet
	departed      bool
	forwardTo     transport.NodeID // valid once the replacement introduced itself
	buffer        []any            // messages held between handoff and redirect

	// Replacement side. A replacement may only dissolve together with its
	// two sibling replacements (triad-atomic absorption): the aggregation
	// tree's virtual edges require intact process triads, so absorbing one
	// sibling while another survives would leave the survivor with a dead
	// tree slot and deadlock the wave. Each phase, a replacement asks its
	// siblings whether they dissolve too and proceeds only on a unanimous
	// yes; the vote is stable within a phase, so the triad decides
	// consistently.
	isReplacement bool
	absorbSent    bool
	votesPending  int
	dissolveOK    bool
	// heldQueries are dissolve queries for a phase we have not entered
	// yet; they are answered at phase entry so the answer reflects our
	// status within that phase (phase entry is not simultaneous across the
	// tree, and an early "no" would wedge the querier's triad).
	heldQueries []heldQuery
	// heldAbsorbs are absorbs of a replacement this node spliced joiners in
	// front of during the phase; they wait for the splice (see Node.absorb).
	heldAbsorbs []absorbMsg
	// lastEpoch is the newest update phase this node has entered.
	lastEpoch int64

	// Update phase (§IV-A).
	updatePhase bool
	epoch       int64
	pold        transport.NodeID
	// foldedAtPold is the newest of this node's waves that p_old had folded
	// into a wave of its own when it handed this node the epoch outside the
	// flagged wave (serveMsg.Folded): such a wave rides across the phase in
	// p_old's wave and is served after it, so the phase does not wait for
	// it to come back (maybeFinishPhase).
	foldedAtPold int64
	acksLeft     int
	// handed lists the children handed the epoch outside the flagged wave;
	// until the phase ends their batches are returned, not buffered.
	handed         []transport.NodeID
	introAcksLeft  int
	integrationRun bool
	phaseDone      bool

	// Anchor bookkeeping (valid while holding the anchor role).
	epochCounter int64
}

// Churn control messages.

// joinReq is routed to the node responsible for the new node's point.
type joinReq struct{ NewNode ldb.Ref }

// adoptMsg tells a joining node who relays for it and which key range
// [From, End) it now owns.
type adoptMsg struct {
	Responsible ldb.Ref
	From, End   fixpoint.Frac
}

// transferCmd instructs a joiner to hand the DHT keys in [From, End) over
// to a newer joiner ("u issues v_i to transfer the DHT data to v'").
type transferCmd struct {
	To        ldb.Ref
	From, End fixpoint.Frac
}

// handoverMsg moves DHT data (and parked GETs) to a new owner.
type handoverMsg struct {
	Entries []dht.Entry
	Parked  []dht.ParkedEntry
}

// migrateEntry re-homes a stored element whose owner changed while it was
// in flight; unlike putReq it records no completion.
type migrateEntry struct{ Ent dht.Entry }

// migrateParked re-homes a parked GET.
type migrateParked struct {
	Pos int64
	W   dht.Waiter
}

// setNeighbors integrates a joiner by giving it its ring neighbours.
type setNeighbors struct {
	Pred, Succ ldb.Ref
	Epoch      int64
}

// setPred rewires the successor side of a splice.
type setPred struct {
	Pred  ldb.Ref
	Epoch int64
}

// introAck confirms a setNeighbors / setPred was applied.
type introAck struct{ Epoch int64 }

// hello tells a ring neighbour or a process sibling, at point To, what the
// sender says now (Said): its ring edges with their partial flags, whether
// it is partial, the node it reports to over a ring edge and the process's
// up edge as its left node works it out, under its pair number Seq (see
// Node.ringChanged), and Seen, the newest of the receiver's pair numbers
// the sender holds (Node.sendHello). One hello serves every edge between
// the two: a sibling can be a ring neighbour too. Between siblings it costs
// no round: they share one site or member (a leave replacement is a site of
// its own).
type hello struct {
	From ldb.Ref
	To   ldb.Point
	Said ldb.View
}

// updateAck aggregates "my old subtree finished integrating" (§IV-A).
type updateAck struct{ Epoch int64 }

// updateOver announces the end of the update phase down the new tree.
type updateOver struct{ Epoch int64 }

// rejectBatch returns the unprocessed sub-batch of the sender's wave
// WaveSeq — to a joiner that is being integrated, to a child that is not
// one any more, or across an update phase. The sender takes that wave and
// every later one back (Node.restoreWaves) and resubmits the operations
// through its tree position at the time.
type rejectBatch struct {
	B       batch.Batch
	WaveSeq int64
}

// leavePermissionReq asks the left neighbour for permission to leave.
type leavePermissionReq struct{ From ldb.Ref }

// leaveGrant allows the requester to hand off once it has drained.
type leaveGrant struct{}

// leaveHandoff carries the leaving node's transferable state to its left
// neighbour, which spawns the replacement.
type leaveHandoff struct{ Snap nodeSnapshot }

// redirectMsg announces that Old has been replaced by New.
type redirectMsg struct{ Old, New ldb.Ref }

// absorbMsg is sent by a replacement (From) to its pred during the update
// phase: take my data, successor, responsibilities and possibly the anchor
// role. It names its sender because it may be passed on (see Node.absorb).
type absorbMsg struct {
	From        ldb.Ref
	Entries     []dht.Entry
	Parked      []dht.ParkedEntry
	Succ        ldb.Ref
	Waiting     []subBatch
	Joiners     []joinerInfo
	Grants      []ldb.Ref
	GrantedOpen int
	AnchorRole  bool
	Anchor      anchorBundle
	Epoch       int64
}

// phasePassed tells a replacement that the node it replaces acknowledged
// the update phase Epoch for it after leaving: the replacement sits that
// phase out and answers its siblings' dissolve queries for it no.
type phasePassed struct{ Epoch int64 }

// absorbAck confirms an absorbMsg was ingested.
type absorbAck struct{ Epoch int64 }

// dissolveQuery asks a process sibling whether it dissolves in this phase.
// It names its sender: a query to a sibling that has just left arrives
// through that sibling's forwarder, and the vote must go to the asking
// replacement, not back to the forwarder.
type dissolveQuery struct {
	From  transport.NodeID
	Epoch int64
}

// dissolveReply answers a dissolveQuery.
type dissolveReply struct {
	Epoch int64
	Yes   bool
}

// heldQuery is a buffered dissolveQuery.
type heldQuery struct {
	from  transport.NodeID
	epoch int64
}

// anchorWalk carries the anchor role leftward to the structural minimum
// at the end of an update phase.
type anchorWalk struct{ Anchor anchorBundle }

// nodeSnapshot is the transferable state of a drained leaving node.
type nodeSnapshot struct {
	Self ldb.Ref
	// The replacement stands at the same point and continues the leaving
	// node's pair numbers, what it told under them and what it was told, so
	// every view its neighbours and siblings hold stays valid.
	Hood       ldb.Neighborhood
	AnchorRole bool
	Anchor     anchorBundle
	Waiting    []subBatch
	// FoldedWaves moves the fold cursors with the waiting sub-batches: a
	// child's waves chain through waves the leaving node folded.
	FoldedWaves   []FoldedWaveImage
	Entries       []dht.Entry
	Parked        []dht.ParkedEntry
	Joiners       []joinerInfo
	GrantsPending []ldb.Ref
	GrantedOpen   int
}

// frozen reports whether stage 1 must hold: an unadopted joiner cannot
// send batches anywhere.
func (c *churnState) frozen() bool {
	return c.joining && !c.relayVia.Valid()
}

// takeJoinCount reports the current number of un-integrated joiners. The
// level (not a delta) rides in every batch, so stragglers keep triggering
// update phases until everyone is integrated.
func (c *churnState) takeJoinCount() int64 { return int64(len(c.joiners)) }

// takeLeaveCount reports this node's own pending-leave level: a live
// replacement reports itself until it dissolves. (Replacements are ring
// members and send their own batches, unlike joiners, which are reported
// by their responsible node.)
func (c *churnState) takeLeaveCount() int64 {
	if c.isReplacement {
		return 1
	}
	return 0
}

// anchorObserve runs at the anchor during Stage 2: decide whether this
// wave starts an update phase. It returns the phase epoch, or 0.
func (c *churnState) anchorObserve(n *Node, b batch.Batch) int64 {
	if c.updatePhase || b.J+b.L == 0 {
		return 0
	}
	c.epochCounter++
	n.cl.metrics.UpdatePhases++
	return c.epochCounter
}

// enterUpdatePhase records the old-tree bookkeeping when the flagged
// intervals arrive: p_old and |C_old| (§IV-A). Dissolve queries that were
// waiting for this phase are answered now.
func (c *churnState) enterUpdatePhase(ctx *transport.Context, from transport.NodeID, epoch int64, subs []subBatch) {
	c.updatePhase = true
	c.epoch = epoch
	c.lastEpoch = epoch
	c.pold = from
	c.foldedAtPold = 0
	c.acksLeft = 0
	c.handed = nil
	c.introAcksLeft = 0
	c.integrationRun = false
	c.phaseDone = false
	c.absorbSent = false
	for _, sb := range subs {
		if sb.From != transport.None {
			c.acksLeft++
		}
	}
	held := c.heldQueries
	c.heldQueries = nil
	for _, q := range held {
		if q.epoch == epoch {
			ctx.Send(q.from, dissolveReply{Epoch: q.epoch, Yes: c.isReplacement})
		} else if q.epoch < epoch {
			ctx.Send(q.from, dissolveReply{Epoch: q.epoch, Yes: false})
		} else {
			c.heldQueries = append(c.heldQueries, q)
		}
	}
}

// handEpochDown hands an update phase to the children the flagged serve
// does not reach by itself: every child missing from the wave gets the epoch
// in a serve of its own, answering no batch. Under Algorithm 1 those are
// the children that had declined, idle still or woken since. A wave fired on
// work, or past another in flight, waits for no child, and a wave fired after
// it may have folded a declined child's batch, so the child counts as idle no
// more. A node handed the epoch that way (acceptEpoch) was not in the wave
// at all, so none of its children was: each is handed it in turn, which is
// how a phase reaches every node of an idle subtree. Whoever is handed the
// epoch owes an updateAck like a child in the wave.
//
// §IV-A relies on no batch being in flight during a phase: under Algorithm 1
// every batch is in the flagged wave and answered by it. A child handed the
// epoch may have woken and sent one that is not, and a child that pipelines
// may have sent waves past the flagged one; both are returned to their
// sender (returnsInPhase), like a joiner's, and resubmitted after the phase
// — carried across it, a relayed joiner's share could end up below the
// joiner's new place in the tree and wait for itself. A node acknowledges
// the phase only once its pipelined waves at p_old have come back
// (maybeFinishPhase). The phase rebuilds the tree, so every standing from
// before it is dropped: afterwards each node is active and the first wave
// runs under Algorithm 1 again.
func (c *churnState) handEpochDown(ctx *transport.Context, n *Node, inWave []subBatch) {
	for _, k := range n.children() {
		if !slices.ContainsFunc(inWave, func(sb subBatch) bool { return sb.From == k.ID }) {
			ctx.Send(k.ID, serveMsg{UpdateEpoch: c.epoch, Folded: n.foldedWaves[k.ID]})
			c.acksLeft++
			c.handed = append(c.handed, k.ID)
		}
	}
	n.standing, n.idleKids = active, nil
	c.returnBatches(ctx, n)
}

// returnsInPhase reports whether a child's sub-batch goes back to it
// because this node is in an update phase it was not part of: the child
// was handed the epoch, or the wave was pipelined past the child's wave in
// the flagged one (see handEpochDown). The first wave a child fires after
// it left the phase stays: it has nothing in flight before it.
func (c *churnState) returnsInPhase(sb subBatch) bool {
	return c.updatePhase && (sb.Prev != 0 || slices.Contains(c.handed, sb.From))
}

// returnBatches sends the waiting sub-batches that do not cross the phase
// back to their senders (see handEpochDown).
func (c *churnState) returnBatches(ctx *transport.Context, n *Node) {
	keep := n.waiting[:0]
	for _, w := range n.waiting {
		if c.returnsInPhase(w) {
			ctx.Send(w.From, rejectBatch{B: w.B, WaveSeq: w.WaveSeq})
		} else {
			keep = append(keep, w)
		}
	}
	n.waiting = keep
}

// acceptEpoch enters an update phase at a node the flagged wave did not
// include: it is the serve of an empty wave, with nothing to decompose. If
// the node has woken since it declined, its parent returns the batch. A
// node that has entered the phase already — a pipelined wave's node hands
// the epoch to whatever it counts as its children, and mid-phase two
// nodes can count the same one — acknowledges at once: its subtree is in
// the phase through the parent it entered from.
func (n *Node) acceptEpoch(ctx *transport.Context, from transport.NodeID, epoch, folded int64) {
	if n.churn.lastEpoch >= epoch {
		ctx.Send(from, updateAck{Epoch: epoch})
		return
	}
	n.churn.enterUpdatePhase(ctx, from, epoch, nil)
	n.churn.foldedAtPold = folded
	n.churn.handEpochDown(ctx, n, nil)
	n.churn.startIntegration(ctx, n)
}

// startIntegration begins this node's update-phase duties right after the
// flagged serve was forwarded: splice joiners into the ring and reject
// their unprocessed next-wave sub-batches.
func (c *churnState) startIntegration(ctx *transport.Context, n *Node) {
	if c.integrationRun {
		return
	}
	c.integrationRun = true

	if len(c.joiners) > 0 {
		js := c.joiners
		c.joiners = nil

		var keep []subBatch
		for _, w := range n.waiting {
			rejected := false
			for _, j := range js {
				if w.From == j.Ref.ID {
					ctx.Send(j.Ref.ID, rejectBatch{B: w.B, WaveSeq: w.WaveSeq})
					rejected = true
					break
				}
			}
			if !rejected {
				keep = append(keep, w)
			}
		}
		n.waiting = keep

		oldSucc := n.hood.Succ
		for i, j := range js {
			pred := n.self
			if i > 0 {
				pred = js[i-1].Ref
			}
			succ := oldSucc
			if i+1 < len(js) {
				succ = js[i+1].Ref
			}
			ctx.Send(j.Ref.ID, setNeighbors{Pred: pred, Succ: succ, Epoch: c.epoch})
			c.introAcksLeft++
			if j.End != succ.Point.Label {
				// What this node kept past the joiner's range (joinerFor) is
				// the joiner's now, up to its new successor.
				ents, parked := n.store.Extract(func(pos int64) bool {
					return fixpoint.InCWRange(n.cl.keyHash.Frac(uint64(pos)), j.End, succ.Point.Label)
				})
				ctx.Send(j.Ref.ID, handoverMsg{Entries: ents, Parked: parked})
			}
		}
		if oldSucc.ID != n.self.ID {
			ctx.Send(oldSucc.ID, setPred{Pred: js[len(js)-1].Ref, Epoch: c.epoch})
			c.introAcksLeft++
		}
		n.hood.Succ = js[0].Ref
		n.ringChanged(ctx, n.hood.Pred, oldSucc)
	}

	// Replacements poll their sibling triad before dissolving.
	c.votesPending = 0
	c.dissolveOK = true
	if c.isReplacement {
		for _, sib := range []ldb.Ref{n.hood.SibL, n.hood.SibM, n.hood.SibR} {
			if sib.Valid() && sib.ID != n.self.ID {
				ctx.Send(sib.ID, dissolveQuery{From: n.self.ID, Epoch: c.epoch})
				c.votesPending++
			}
		}
	}
	c.maybeFinishPhase(ctx, n)
}

// maybeFinishPhase completes this node's part of the update phase once all
// local work and child acknowledgments are in.
func (c *churnState) maybeFinishPhase(ctx *transport.Context, n *Node) {
	if !c.updatePhase || c.phaseDone || !c.integrationRun {
		return
	}
	if c.acksLeft > 0 || c.introAcksLeft > 0 || c.votesPending > 0 {
		return
	}
	if slices.ContainsFunc(n.inFlight, func(w wave) bool { return w.To == c.pold && w.Prev != 0 && w.Seq > c.foldedAtPold }) {
		// A pipelined wave of ours comes back from p_old within the phase
		// (returnsInPhase). On a channel that reorders it could otherwise
		// reach p_old after the phase, carried across it. A wave fired with
		// none before it waits out the phase where it is, as under
		// Algorithm 1, and so does one p_old had folded before the phase
		// reached it: it waits in p_old's own wave.
		return
	}
	// A replacement's final duty is to dissolve into its pred; it acks
	// p_old only after the pred confirmed the splice (absorbAck), so the
	// phase cannot end with a dangling ring edge. It dissolves only with
	// a unanimous triad vote (see churnState).
	if c.isReplacement && c.dissolveOK && !c.absorbSent {
		c.absorbSent = true
		ents, parked := n.store.ExtractAll()
		ctx.Send(n.hood.Pred.ID, absorbMsg{
			From:    n.self,
			Entries: ents, Parked: parked, Succ: n.hood.Succ,
			Waiting: n.waiting, Joiners: c.joiners,
			Grants:      c.grantsPending,
			GrantedOpen: c.grantedOpen,
			AnchorRole:  n.anchorRole, Anchor: n.anchorBundle(),
			Epoch: c.epoch,
		})
		n.waiting = nil
		c.joiners = nil
		c.grantsPending = nil
		return
	}
	c.phaseDone = true
	if c.pold != transport.None {
		ctx.Send(c.pold, updateAck{Epoch: c.epoch})
		return
	}
	// Root of the old tree: the phase is globally done.
	n.anchorFinal(ctx)
}

func (n *Node) anchorBundle() anchorBundle {
	return anchorBundle{Ast: n.ast, EpochCounter: n.churn.epochCounter}
}

func (n *Node) setAnchorBundle(b anchorBundle) {
	n.ast = b.Ast
	n.churn.epochCounter = b.EpochCounter
}

// anchorFinal ends the update phase: if nodes joined left of us the anchor
// role walks to the new leftmost node, which then announces updateOver.
func (n *Node) anchorFinal(ctx *transport.Context) {
	if !n.anchorRole {
		panic(fmt.Sprintf("core: anchorFinal on non-anchor %v", n.self))
	}
	if n.hood.IsAnchor(n.self) {
		n.broadcastUpdateOver(ctx)
		return
	}
	n.anchorRole = false
	ctx.Send(n.hood.Pred.ID, anchorWalk{Anchor: n.anchorBundle()})
}

// broadcastUpdateOver resumes normal operation down the new tree. The
// epoch being ended is the anchor's phase counter — NOT the local
// churn.epoch: the node announcing the end may have been integrated
// mid-phase (the anchor role walked to it) and never have entered the
// phase itself.
func (n *Node) broadcastUpdateOver(ctx *transport.Context) {
	epoch := n.churn.epochCounter
	if n.churn.epoch > epoch {
		epoch = n.churn.epoch
	}
	if epoch > n.churn.lastEpoch {
		n.churn.lastEpoch = epoch
	}
	n.churn.exitUpdatePhase()
	for _, id := range n.updateOverTargets() {
		ctx.Send(id, updateOver{Epoch: epoch})
	}
}

// updateOverTargets lists where to propagate the end-of-phase signal: the
// aggregation-tree children without the sibling-integration gate (the gate
// protects wave expectations, but would cut the broadcast), plus the ring
// neighbours. Flooding over tree and ring edges with epoch deduplication
// reaches every ring member even while tree links are still settling.
func (n *Node) updateOverTargets() []transport.NodeID {
	seen := map[transport.NodeID]bool{n.self.ID: true}
	var out []transport.NodeID
	add := func(id transport.NodeID) {
		if id >= 0 && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if !n.churn.joining {
		for _, c := range n.hood.Children(n.self) {
			add(c.ID)
		}
		add(n.hood.Pred.ID)
		add(n.hood.Succ.ID)
	}
	for _, j := range n.churn.joiners {
		add(j.Ref.ID)
	}
	return out
}

func (c *churnState) exitUpdatePhase() {
	c.updatePhase = false
	c.pold = transport.None
	c.acksLeft = 0
	c.handed = nil
	c.introAcksLeft = 0
	c.integrationRun = false
	c.phaseDone = false
}

// tick runs deferred churn actions from TIMEOUT.
func (c *churnState) tick(ctx *transport.Context, n *Node) {
	if c.departed {
		return
	}
	// Ask for leave permission once, postponing while we owe a granted
	// right neighbour its departure (§IV-B: a node that acknowledged a
	// right neighbour's leave waits until that neighbour has left).
	// Unanswered requests from the right do NOT block us — the paper's
	// priority rule makes the rightward leaver the one that postpones; its
	// pending request transfers to our replacement, which grants it.
	if c.leaving && !c.leaveReqSent && !c.joining && c.grantedOpen == 0 {
		c.leaveReqSent = true
		ctx.Send(n.hood.Pred.ID, leavePermissionReq{From: n.self})
	}
	// Serve deferred permission grants outside update phases, unless we
	// are leaving ourselves (then the requester waits until our own leave
	// finished; our replacement inherits the pending request).
	if len(c.grantsPending) > 0 && !c.updatePhase && !c.leaving {
		for _, req := range c.grantsPending {
			c.grantedOpen++
			ctx.Send(req.ID, leaveGrant{})
		}
		c.grantsPending = nil
	}
	// Execute our own handoff once granted, drained, and outside update
	// phases.
	if c.leaveGranted && !c.updatePhase && n.drainedForLeave() {
		n.executeLeave(ctx)
	}
}

// drainedForLeave reports whether all client-attributed state has flushed
// through normal waves, so the replacement never carries foreign requests,
// and whether the parent has heard from the node since it last declined:
// the replacement is a new node the parent must wait for, not an idle one.
func (n *Node) drainedForLeave() bool {
	return len(n.pending) == 0 && n.disc.drained(n) && len(n.inFlight) == 0 &&
		len(n.pendingGets) == 0 && n.standing != idle
}

// handleChurn processes churn control messages; it reports whether the
// payload was one.
func (n *Node) handleChurn(ctx *transport.Context, from transport.NodeID, payload any) bool {
	c := &n.churn
	switch m := payload.(type) {
	case adoptMsg:
		c.relayVia = m.Responsible
		c.rangeFrom, c.rangeEnd = m.From, m.End
		c.rangeValid = true
		heldH := c.heldHandovers
		c.heldHandovers = nil
		for _, h := range heldH {
			n.ingest(ctx, h.Entries, h.Parked)
		}
		held := c.heldTransfers
		c.heldTransfers = nil
		for _, tc := range held {
			n.applyTransfer(ctx, tc)
		}
		heldD := c.heldDirects
		c.heldDirects = nil
		for _, d := range heldD {
			n.dispatchDHT(ctx, d.Key, d.Inner)
		}
	case handoverMsg:
		if c.joining && !c.rangeValid {
			// Raced ahead of our adoption message; ingest once adopted.
			c.heldHandovers = append(c.heldHandovers, m)
			return true
		}
		n.ingest(ctx, m.Entries, m.Parked)
	case transferCmd:
		if c.joining && !c.rangeValid {
			// Raced ahead of our own adoption; apply once adopted.
			c.heldTransfers = append(c.heldTransfers, m)
			return true
		}
		n.applyTransfer(ctx, m)
	case setNeighbors:
		oldPred, oldSucc := n.hood.Pred, n.hood.Succ
		n.hood.Pred, n.hood.Succ = m.Pred, m.Succ
		c.joining = false
		c.relayVia = ldb.Ref{ID: transport.None}
		c.rangeValid = false
		n.ringChanged(ctx, oldPred, oldSucc) // tells the siblings too
		n.cl.noteIntegrated(n)
		ctx.Send(from, introAck{Epoch: m.Epoch})
		// Now that the ring neighbours are known, release any routed
		// messages that arrived too early.
		hold := c.routedHold
		c.routedHold = nil
		for _, rm := range hold {
			n.routeStep(ctx, rm)
		}
	case setPred:
		oldPred := n.hood.Pred
		n.hood.Pred = m.Pred
		n.ringChanged(ctx, oldPred, n.hood.Succ)
		ctx.Send(from, introAck{Epoch: m.Epoch})
	case introAck:
		if c.updatePhase && m.Epoch == c.epoch {
			c.introAcksLeft--
			if c.introAcksLeft == 0 {
				held := c.heldAbsorbs
				c.heldAbsorbs = nil
				for _, a := range held {
					n.absorb(ctx, a)
				}
			}
			c.maybeFinishPhase(ctx, n)
		}
	case updateAck:
		if c.updatePhase && m.Epoch == c.epoch {
			c.acksLeft--
			c.maybeFinishPhase(ctx, n)
		}
	case updateOver:
		// A newer epoch proves every older phase ended globally; this
		// matters for nodes integrated in phase k whose process triad only
		// completed in a later phase — they can miss phase k's broadcast
		// (their tree parent was not a ring member yet).
		fresh := m.Epoch > c.lastEpoch
		if c.updatePhase && m.Epoch >= c.epoch {
			n.churn.exitUpdatePhase()
			fresh = true
		}
		if m.Epoch > c.lastEpoch {
			c.lastEpoch = m.Epoch
		}
		if fresh {
			for _, id := range n.updateOverTargets() {
				ctx.Send(id, updateOver{Epoch: m.Epoch})
			}
		}
	case rejectBatch:
		i := n.flightIndex(m.WaveSeq)
		if i < 0 {
			// Restored already, with an older wave its parent returned
			// first (or, after a fail-stop restart, a replayed duplicate).
			return true
		}
		n.restoreWaves(i)
		c.returnBatches(ctx, n)
		c.maybeFinishPhase(ctx, n)
	case leavePermissionReq:
		c.grantsPending = append(c.grantsPending, m.From)
	case leaveGrant:
		c.leaveGranted = true
	case leaveHandoff:
		n.spawnReplacement(ctx, m.Snap)
	case redirectMsg:
		n.applyRedirect(m.Old, m.New)
	case absorbMsg:
		n.absorb(ctx, m)
	case absorbAck:
		// Accept the ack even if a racing updateOver already ended the
		// phase locally: the splice happened, so we must depart either way.
		if c.absorbSent && !c.departed {
			c.phaseDone = true
			if c.updatePhase && c.pold != transport.None {
				ctx.Send(c.pold, updateAck{Epoch: c.epoch})
			}
			n.depart(ctx, n.hood.Pred.ID)
		}
	case hello:
		n.noteHello(ctx, m)
	case phasePassed:
		if m.Epoch > c.lastEpoch && !c.updatePhase {
			c.lastEpoch = m.Epoch
			held := c.heldQueries
			c.heldQueries = nil
			for _, q := range held {
				if q.epoch <= m.Epoch {
					ctx.Send(q.from, dissolveReply{Epoch: q.epoch, Yes: false})
				} else {
					c.heldQueries = append(c.heldQueries, q)
				}
			}
		}
	case dissolveQuery:
		switch {
		case c.updatePhase && c.epoch == m.Epoch:
			ctx.Send(m.From, dissolveReply{Epoch: m.Epoch, Yes: c.isReplacement})
		case c.lastEpoch >= m.Epoch:
			// A stale query from a phase we have already passed through.
			ctx.Send(m.From, dissolveReply{Epoch: m.Epoch, Yes: false})
		default:
			// We have not entered that phase yet; answer at entry.
			c.heldQueries = append(c.heldQueries, heldQuery{from: m.From, epoch: m.Epoch})
		}
	case dissolveReply:
		if c.updatePhase && m.Epoch == c.epoch && c.votesPending > 0 {
			c.votesPending--
			if !m.Yes {
				// One no decides the triad for this phase; the other vote can
				// only be a no too, or never come: a sibling below one that
				// sits the phase out is not handed it, and holds the query.
				c.dissolveOK, c.votesPending = false, 0
			}
			c.maybeFinishPhase(ctx, n)
		}
	case anchorWalk:
		n.receiveAnchorWalk(ctx, m)
	default:
		return false
	}
	return true
}

// handleRoutedChurn processes routed payloads that are not DHT operations.
func (n *Node) handleRoutedChurn(ctx *transport.Context, inner any) {
	switch m := inner.(type) {
	case joinReq:
		if n.churn.absorbSent {
			// A replacement dissolving into its pred cannot relay a joiner:
			// its joiner list has left with the absorb, and a joiner adopted
			// now would wait for a splice no one makes. The pred owns the
			// joiner's point once the absorb lands; the route starts afresh
			// there.
			ctx.Send(n.hood.Pred.ID, routedMsg{RS: ldb.RouteState{Target: m.NewNode.Point.Label, BitsLeft: -1}, Inner: m})
			return
		}
		n.adoptJoiner(ctx, m.NewNode)
	default:
		panic(fmt.Sprintf("core: %v cannot handle routed payload %T", n.self, inner))
	}
}

// cwLess orders ring points by clockwise distance from this node: the
// order in which joiners must be chained into the ring. Absolute label
// order would be wrong for the node before the 0/1 seam, whose interval
// wraps.
func (n *Node) cwLess(a, b ldb.Point) bool {
	da := fixpoint.CWDist(n.self.Point.Label, a.Label)
	db := fixpoint.CWDist(n.self.Point.Label, b.Label)
	if da != db {
		return da < db
	}
	return a.Tie < b.Tie
}

// adoptJoiner makes this node responsible for a joining node (§IV-A): it
// introduces itself, hands over the DHT sub-interval (delegating to the
// joiner's closest joining predecessor when one exists), and treats the
// joiner as an extra aggregation-tree child.
func (n *Node) adoptJoiner(ctx *transport.Context, v ldb.Ref) {
	c := &n.churn
	idx := sort.Search(len(c.joiners), func(i int) bool {
		return n.cwLess(v.Point, c.joiners[i].Ref.Point)
	})
	c.joiners = append(c.joiners, joinerInfo{})
	copy(c.joiners[idx+1:], c.joiners[idx:])
	end := n.hood.Succ.Point.Label
	if idx+1 < len(c.joiners) {
		end = c.joiners[idx+1].Ref.Point.Label
	}
	c.joiners[idx] = joinerInfo{Ref: v, End: end}
	if idx > 0 {
		holder := &c.joiners[idx-1]
		holder.End = v.Point.Label
		ctx.Send(holder.Ref.ID, transferCmd{To: v, From: v.Point.Label, End: end})
	} else {
		ents, parked := n.store.Extract(func(pos int64) bool {
			return fixpoint.InCWRange(n.cl.keyHash.Frac(uint64(pos)), v.Point.Label, end)
		})
		ctx.Send(v.ID, handoverMsg{Entries: ents, Parked: parked})
	}
	ctx.Send(v.ID, adoptMsg{Responsible: n.self, From: v.Point.Label, End: end})
}

// joinerFor returns the joiner owning key, if any: the joiner with the
// largest point not above the key, measured clockwise from this node, if
// the key lies within the range that joiner was told it owns. A key past
// that range — this node's range grew when it absorbed a replacement —
// stays here until the joiner is spliced in (startIntegration): the joiner
// would bounce it back (dispatchDHT), and this node send it again, for
// ever.
func (c *churnState) joinerFor(key fixpoint.Frac, self ldb.Ref) (joinerInfo, bool) {
	kd := fixpoint.CWDist(self.Point.Label, key)
	best := -1
	for i, j := range c.joiners {
		jd := fixpoint.CWDist(self.Point.Label, j.Ref.Point.Label)
		if jd <= kd {
			best = i
		}
	}
	if best < 0 || !fixpoint.InCWRange(key, c.joiners[best].Ref.Point.Label, c.joiners[best].End) {
		return joinerInfo{}, false
	}
	return c.joiners[best], true
}

// applyTransfer extracts a key range for a newer joiner and hands it over.
func (n *Node) applyTransfer(ctx *transport.Context, m transferCmd) {
	if n.churn.rangeValid {
		// Shrink our owned range; anything arriving later for the split
		// part will be re-dispatched by ingest.
		if fixpoint.CWDist(n.churn.rangeFrom, m.From) < fixpoint.CWDist(n.churn.rangeFrom, n.churn.rangeEnd) {
			n.churn.rangeEnd = m.From
		}
	}
	ents, parked := n.store.Extract(func(pos int64) bool {
		return fixpoint.InCWRange(n.cl.keyHash.Frac(uint64(pos)), m.From, m.End)
	})
	ctx.Send(m.To.ID, handoverMsg{Entries: ents, Parked: parked})
}

// ingest re-homes handed-over data. Every item passes through the
// ownership-aware dispatch, so data that raced past a topology change
// keeps moving until it reaches its current owner; nothing is ever
// stranded or lost.
func (n *Node) ingest(ctx *transport.Context, ents []dht.Entry, parked []dht.ParkedEntry) {
	for _, p := range parked {
		n.dispatchDHT(ctx, n.cl.keyHash.Frac(uint64(p.Pos)), migrateParked{Pos: p.Pos, W: p.Waiter})
	}
	for _, ent := range ents {
		n.dispatchDHT(ctx, n.cl.keyHash.Frac(uint64(ent.Pos)), migrateEntry{Ent: ent})
	}
}

// RequestLeave marks this node as wanting to leave; the permission
// handshake and drained handoff run from TIMEOUT.
func (n *Node) RequestLeave() { n.churn.leaving = true }

// executeLeave hands the node's transferable state to the left neighbour
// (§IV-B). The node has drained all client-attributed state by now.
func (n *Node) executeLeave(ctx *transport.Context) {
	c := &n.churn
	snap := nodeSnapshot{
		Self: n.self, Hood: n.hood,
		AnchorRole: n.anchorRole, Anchor: n.anchorBundle(),
		Waiting:       n.waiting,
		FoldedWaves:   waveCursorImage(n.foldedWaves),
		Joiners:       c.joiners,
		GrantsPending: c.grantsPending, GrantedOpen: c.grantedOpen,
	}
	snap.Entries, snap.Parked = n.store.ExtractAll()
	n.waiting = nil
	ctx.Send(n.hood.Pred.ID, leaveHandoff{Snap: snap})
	// Buffer everything until the replacement tells us its address —
	// dissolve queries held for a phase this node never enters too: its
	// replacement answers them.
	c.departed = true
	c.forwardTo = transport.None
	for _, q := range c.heldQueries {
		c.buffer = append(c.buffer, dissolveQuery{From: q.from, Epoch: q.epoch})
	}
	c.heldQueries = nil
	ctx.StopTimeouts(ctx.Self())
	n.cl.noteDeparted(n)
}

// spawnReplacement creates the replacement node v' for a departed right
// neighbour and becomes responsible for it (§IV-B).
func (n *Node) spawnReplacement(ctx *transport.Context, snap nodeSnapshot) {
	repl := &Node{
		cl:          n.cl,
		disc:        n.cl.newDiscipline(),
		self:        ldb.Ref{ID: transport.None, Point: snap.Self.Point, Kind: snap.Self.Kind},
		hood:        snap.Hood,
		anchorRole:  snap.AnchorRole,
		clientID:    -1, // replacements never issue requests
		store:       dht.NewStore(),
		pendingGets: make(map[uint64]getCtx),
		waiting:     snap.Waiting,
		foldedWaves: restoreWaveCursor(snap.FoldedWaves),
	}
	repl.setAnchorBundle(snap.Anchor)
	repl.churn.isReplacement = true
	repl.churn.joiners = snap.Joiners
	repl.churn.grantsPending = snap.GrantsPending
	repl.churn.grantedOpen = snap.GrantedOpen
	if c := &n.churn; c.updatePhase {
		// Spawned mid-phase, the replacement sits the phase out: it answers
		// its siblings' dissolve queries no and acknowledges an epoch handed
		// to it at once, as the node it replaces — which left before the
		// phase reached it — would have.
		repl.churn.lastEpoch = c.epoch
	}
	id := ctx.Spawn(repl)
	repl.self.ID = id
	for _, p := range snap.Parked {
		repl.store.Park(p.Pos, p.Waiter)
	}
	for _, ent := range snap.Entries {
		repl.store.Insert(ent)
	}
	// Rewrite every reference we hold to the departed node — we may be its
	// ring predecessor, but also its process sibling.
	n.applyRedirect(snap.Self, repl.self)
	if n.churn.grantedOpen > 0 {
		n.churn.grantedOpen--
	}
	// Tell everyone who knew the old node, including the departed node
	// itself so it can start forwarding. The order is deterministic: the
	// engine schedule must not depend on map iteration.
	targets := []transport.NodeID{snap.Self.ID}
	seen := map[transport.NodeID]bool{snap.Self.ID: true, n.self.ID: true}
	h := snap.Hood
	candidates := []ldb.Ref{h.Pred, h.Succ, h.SibL, h.SibM, h.SibR}
	for _, j := range snap.Joiners {
		candidates = append(candidates, j.Ref)
	}
	for _, r := range candidates {
		if r.Valid() && !seen[r.ID] {
			seen[r.ID] = true
			targets = append(targets, r.ID)
		}
	}
	for _, t := range targets {
		ctx.Send(t, redirectMsg{Old: snap.Self, New: repl.self})
	}
	n.cl.noteReplacement(repl)
}

// applyRedirect rewrites every stored reference Old -> New.
func (n *Node) applyRedirect(old, new ldb.Ref) {
	rw := func(r *ldb.Ref) {
		if r.ID == old.ID {
			*r = new
			n.invalidateTopology()
		}
	}
	if n.hood.Redirect(old, new) {
		n.invalidateTopology()
	}
	rw(&n.churn.relayVia)
	for i := range n.churn.joiners {
		rw(&n.churn.joiners[i].Ref)
	}
	for i := range n.churn.grantsPending {
		rw(&n.churn.grantsPending[i])
	}
}

// ringChanged follows every change of what a node tells its ring
// neighbours or its siblings: its pred or succ (integration, a splice, an
// absorb), whether it is partial (its sibling parent entered the ring),
// whether a neighbour is, or the node it reports to (toldUp). A view of a
// neighbour that is another node now is dropped, and the news goes to both
// neighbours and to the siblings under the next pair number. Until the node
// at the other end of its process's up edge has confirmed it
// (ldb.View.Seen), the node holding that edge holds its batches
// (parentJoining), while that node does not count it as a child before it
// has heard it (ldb.Neighborhood.Children). So a parent and its child agree
// on their edge before either relies on it. The siblings work out the same
// up edge from what each tells the others.
func (n *Node) ringChanged(ctx *transport.Context, oldPred, oldSucc ldb.Ref) {
	if n.hood.Pred.ID != oldPred.ID {
		n.hood.PredView = ldb.Unknown
	}
	if n.hood.Succ.ID != oldSucc.ID {
		n.hood.SuccView = ldb.Unknown
	}
	n.invalidateTopology()
	n.refreshUp() // before the new number, which tells a new up edge
	n.hood.RingSeq++
	to := [...]ldb.Ref{n.hood.Pred, n.hood.Succ, n.hood.SibL, n.hood.SibM, n.hood.SibR}
	for i, r := range to {
		if r.Valid() && r.ID != n.self.ID && !slices.ContainsFunc(to[:i], func(q ldb.Ref) bool { return q.ID == r.ID }) {
			n.sendHello(ctx, r)
		}
	}
}

// sendHello tells the node to what this node says now. Seen is the newest
// of to's pair numbers this node holds in any view of it, −1 with none, and
// to takes it for each edge it has to this node. A sibling view can be
// newer than the ring view of the same node, which is dropped when that
// node becomes a neighbour; that is safe, since the only ring edge whose
// confirmation a node waits for leads to the far end of its process's up
// edge (parentJoining), never to a sibling.
func (n *Node) sendHello(ctx *transport.Context, to ldb.Ref) {
	h := &n.hood
	seen := int64(-1)
	for _, e := range h.Ends() {
		if e.To.ID == to.ID {
			seen = max(seen, e.View.Seq)
		}
	}
	ctx.Send(to.ID, hello{From: n.self, To: to.Point, Said: ldb.View{
		Edges:   ldb.Edges{Pred: h.Pred, Succ: h.Succ, PredPartial: h.PredView.Partial, SuccPartial: h.SuccView.Partial},
		Partial: n.partial(), Told: n.toldUp(), Word: h.SibViews[ldb.Left].Word,
		Seq: h.RingSeq, Seen: seen,
	}})
}

// refreshUp works out again the up edge the node acts on
// (ldb.Neighborhood.ActingUp), after any of the ring edges, partial flags
// and words it is read from changed, and keeps the node's site ordered. A
// left node works the process's up edge out and, when that is not what it
// last told (its own SibViews entry), reports that its siblings must hear of
// it under the next pair number; when the edge moves to the middle node,
// that number is the one the middle node must confirm (UpSeq).
func (n *Node) refreshUp() (tell bool) {
	if word := &n.hood.SibViews[ldb.Left].Word; n.self.Kind == ldb.Left {
		if d := n.hood.UpEdge(n.self); d != *word {
			switch {
			case d.Holder != ldb.Middle:
				n.hood.UpSeq = -1
			case word.Holder != ldb.Middle:
				n.hood.UpSeq = n.hood.RingSeq + 1
			}
			*word, tell = d, true
		}
	}
	n.hood.Up = n.hood.ActingUp(n.self)
	n.orderSite()
	return tell
}

// orderSite keeps a simulator site's TIMEOUT order children first: the
// triad's root, the node holding the up edge, runs its TIMEOUT last, so an
// aggregate climbs the triad within one round (sim.Engine.TimeoutLast). The
// middle node sees to it.
func (n *Node) orderSite() {
	if n.self.Kind != ldb.Middle || n.cl.reg != nil {
		return
	}
	if root := [...]ldb.Ref{ldb.Left: n.hood.SibL, ldb.Middle: n.hood.SibM}[n.hood.Up.Holder]; root.Valid() {
		n.cl.eng.TimeoutLast(root.ID)
	}
}

// noteHello takes what a ring neighbour or sibling says, into the view of
// each edge it holds, newer numbers only (hellos may overtake each other).
// A hello addressed to another point is dropped: a departed node forwards to
// the node that absorbed it, whose numbers Seen does not count, while a
// replacement, at the point of the node it replaces and continuing its
// numbers, takes what is forwarded. So is one from a node that holds no edge
// to this one: when it comes to hold one, a change on one side or the other
// sends a fresh hello. A sibling is one at the point of the sibling of its
// kind (a sibling that dissolved forwards to the node that absorbed it);
// hearing from it says that it is a ring member.
//
// When a ring neighbour turned whole, when this node stopped being partial,
// or when the up edge moved to or from it, its ring neighbours and siblings
// hear of it (ringChanged). Otherwise a ring neighbour hears back when the
// hello brought news or its sender has not seen this node's current pair,
// and a left sibling when this middle node must confirm a word that names it.
func (n *Node) noteHello(ctx *transport.Context, m hello) {
	h := &n.hood
	if m.To != n.self.Point {
		return
	}
	// take keeps what m says in the view v if it is newer, and reports
	// whether it was and whether the sender turned whole or partial.
	take := func(v *ldb.View) (news, turned bool) {
		seen := max(v.Seen, m.Said.Seen)
		if news = m.Said.Seq > v.Seq; news {
			turned = v.Partial != m.Said.Partial
			*v = m.Said
		}
		v.Seen = seen
		return news, turned
	}
	ring, news, turned := false, false, false
	ends := h.Ends()
	for _, e := range ends[:2] { // the ring neighbours
		if e.To.ID == m.From.ID {
			ne, tu := take(e.View)
			ring, news, turned = true, news || ne, turned || tu
		}
	}
	wasPartial, told := n.partial(), n.toldUp()
	tell, word := false, false
	if k := m.From.Kind; k != n.self.Kind && [...]ldb.Ref{h.SibL, h.SibM, h.SibR}[k].Point == m.From.Point {
		h.SibIn[k] = true
		if k != ldb.Right {
			ne, _ := take(&h.SibViews[k])
			word = ne && k == ldb.Left && n.self.Kind == ldb.Middle && m.Said.Word.Holder == ldb.Middle
		}
		n.invalidateTopology()
		tell = n.refreshUp()
		if n.churn.joining {
			return // its hellos go out once it is spliced in (setNeighbors)
		}
	}
	switch up := n.toldUp(); {
	case turned || tell || wasPartial && !n.partial() || up.Valid() != told.Valid() || up.Point != told.Point:
		n.ringChanged(ctx, h.Pred, h.Succ)
	case ring && (news || m.Said.Seen < h.RingSeq) || word:
		n.childCacheOK = false
		n.sendHello(ctx, m.From)
	}
}

// absorb ingests a dissolving replacement: its data, successor, relayed
// joiners, pending duties, and possibly the anchor role (§IV-B).
//
// A replacement that dissolves in the phase in which its pred integrates
// joiners may address its pred before the joiners stand between the two:
// taking over the replacement's successor there would cut them out of the
// ring. Such an absorb waits until the pred's splice is acknowledged — the
// joiners know their neighbours and the replacement its new pred — and then
// moves along the successor chain to the last joiner, which is the
// replacement's pred now.
func (n *Node) absorb(ctx *transport.Context, m absorbMsg) {
	from := m.From.ID
	if n.hood.Succ.ID != from && n.hood.Succ.ID != n.self.ID && n.cwLess(n.hood.Succ.Point, m.From.Point) {
		if n.churn.introAcksLeft > 0 {
			n.churn.heldAbsorbs = append(n.churn.heldAbsorbs, m)
		} else {
			ctx.Send(n.hood.Succ.ID, m)
		}
		return
	}
	// Splice first: ingest re-dispatches anything we do not own, so the
	// ring view must already cover the absorbed range.
	if m.Succ.ID != from && m.Succ.ID != n.self.ID {
		oldSucc := n.hood.Succ
		n.hood.Succ = m.Succ
		n.ringChanged(ctx, n.hood.Pred, oldSucc)
		ctx.Send(m.Succ.ID, setPred{Pred: n.self, Epoch: m.Epoch})
		if n.churn.updatePhase && n.churn.epoch == m.Epoch {
			n.churn.introAcksLeft++
		}
	}
	n.invalidateTopology()
	n.ingest(ctx, m.Entries, m.Parked)
	n.churn.joiners = append(n.churn.joiners, m.Joiners...)
	sort.Slice(n.churn.joiners, func(i, j int) bool {
		return n.cwLess(n.churn.joiners[i].Ref.Point, n.churn.joiners[j].Ref.Point)
	})
	n.churn.grantsPending = append(n.churn.grantsPending, m.Grants...)
	n.churn.grantedOpen += m.GrantedOpen
	n.waiting = append(n.waiting, m.Waiting...)
	ctx.Send(from, absorbAck{Epoch: m.Epoch})
	if m.AnchorRole {
		// The replacement was the old-tree root; its phase-end duty now
		// falls to the anchor role holder, found by walking left.
		n.receiveAnchorWalk(ctx, anchorWalk{Anchor: m.Anchor})
	}
	n.churn.maybeFinishPhase(ctx, n)
}

// receiveAnchorWalk accepts or forwards the travelling anchor role.
func (n *Node) receiveAnchorWalk(ctx *transport.Context, m anchorWalk) {
	if n.churn.departed {
		n.churn.forwardOrBuffer(ctx, n, m)
		return
	}
	if n.churn.isReplacement && n.churn.absorbSent {
		// We are dissolving and already spliced out of our pred's view;
		// re-accepting the role here would strand it on a zombie node.
		// Push the walk back towards the ring (it converges once the
		// splice introductions land).
		ctx.Send(n.hood.Pred.ID, anchorWalk{Anchor: m.Anchor})
		return
	}
	if n.hood.IsAnchor(n.self) {
		n.anchorRole = true
		n.setAnchorBundle(m.Anchor)
		n.broadcastUpdateOver(ctx)
		return
	}
	if n.hood.Succ.Point.Less(n.self.Point) {
		// We are the ring maximum (this happens when the departed anchor's
		// replacement dissolved into us); the minimum is our successor.
		ctx.Send(n.hood.Succ.ID, anchorWalk{Anchor: m.Anchor})
		return
	}
	ctx.Send(n.hood.Pred.ID, anchorWalk{Anchor: m.Anchor})
}

// depart switches the node into pure-forwarder mode towards a known peer.
// Any DHT content that arrived after the handoff snapshot is flushed to
// the forwarding target, which re-homes it.
func (n *Node) depart(ctx *transport.Context, forwardTo transport.NodeID) {
	n.churn.departed = true
	n.churn.forwardTo = forwardTo
	if ents, parked := n.store.ExtractAll(); len(ents) > 0 || len(parked) > 0 {
		ctx.Send(forwardTo, handoverMsg{Entries: ents, Parked: parked})
	}
	ctx.StopTimeouts(ctx.Self())
	n.cl.noteDeparted(n)
	n.churn.flushBuffer(ctx, n)
}

// forwardOrBuffer relays a message for a departed node, or holds it until
// the forwarding target is known.
func (c *churnState) forwardOrBuffer(ctx *transport.Context, n *Node, payload any) {
	if c.forwardTo == transport.None {
		c.buffer = append(c.buffer, payload)
		return
	}
	n.cl.metrics.ForwardedMsgs++
	ctx.Send(c.forwardTo, payload)
}

func (c *churnState) flushBuffer(ctx *transport.Context, n *Node) {
	buf := c.buffer
	c.buffer = nil
	for _, m := range buf {
		c.forwardOrBuffer(ctx, n, m)
	}
}

// handleDeparted processes messages at a departed node: the redirect that
// names our replacement is consumed; an update phase handed to the node
// after it left is acknowledged at once, and the replacement sits it out
// (phasePassed); a dissolve query for the phase a replacement dissolved in
// is answered yes; a splice is acknowledged at once and forwarded;
// everything else is forwarded.
func (n *Node) handleDeparted(ctx *transport.Context, from transport.NodeID, payload any) {
	switch m := payload.(type) {
	case redirectMsg:
		if m.Old.ID == n.self.ID {
			n.churn.forwardTo = m.New.ID
			n.churn.flushBuffer(ctx, n)
			return
		}
	case serveMsg:
		if m.WaveSeq == 0 && m.UpdateEpoch != 0 {
			ctx.Send(from, updateAck{Epoch: m.UpdateEpoch})
			n.churn.forwardOrBuffer(ctx, n, phasePassed{Epoch: m.UpdateEpoch})
			return
		}
	case dissolveQuery:
		if c := &n.churn; c.absorbSent && m.Epoch == c.epoch {
			// A replacement that dissolved in that phase votes yes. Forwarded,
			// the query would reach the node that absorbed it, which votes no.
			// Two siblings below a middle node that holds the up edge enter
			// the phase in either order, and the one that entered first may
			// dissolve on the other's vote before that one's query arrives.
			ctx.Send(m.From, dissolveReply{Epoch: m.Epoch, Yes: true})
			return
		}
	case setPred:
		// The splice is acknowledged here, where it was addressed: the
		// replacement that applies it — spawned perhaps only after the phase
		// that waits for this ack — would acknowledge the forwarder.
		ctx.Send(from, introAck{Epoch: m.Epoch})
	case introAck:
		// The replacement's acknowledgment of a splice forwarded to it.
		return
	}
	n.churn.forwardOrBuffer(ctx, n, payload)
}
