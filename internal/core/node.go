package core

import (
	"fmt"
	"slices"
	"sort"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/fixpoint"
	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
)

// Op is the one record of a client operation, from the host's submit to
// the member snapshot: the host names it (ReqID, from NextReqID or a journaled
// identity) and says what it is (IsDeq, Pri, Blob); Cluster.Inject stamps
// Elem, Born and LocalSeq and buffers it; the node's pending list, the
// stack combiner, the in-flight waves and NodeImage all hold this same
// type. Fields are exported for the snapshot codec (encoding/gob).
type Op struct {
	IsDeq    bool
	Elem     dht.Element // enqueues only
	ReqID    uint64
	Born     int64
	LocalSeq int64
	Pri      int32  // priority level of a heap enqueue; zero otherwise
	Blob     []byte // opaque payload riding with an enqueue (networked mode)
}

// subBatch remembers one component of a wave and where it came from: a
// child's sub-batch, or (From == transport.None) the node's own buffered
// operations. WaveSeq is the child's fire counter, echoed in the serve so
// the child can match (or reject) it. Prev is the child's newest wave
// still in flight when it fired this one (0: none): the parent folds the
// sub-batch only once it has folded Prev (see foldable). Fields are
// exported because sub-batches travel inside leave handoffs and absorb
// messages, which cross the wire under the TCP transport, and sit in
// NodeImage as they are.
type subBatch struct {
	From    transport.NodeID
	B       batch.Batch
	WaveSeq int64
	Prev    int64
}

// ownWave is the node's own contribution to a wave: the operations in
// order plus their run encoding.
type ownWave struct {
	ops []Op
	B   batch.Batch
}

// wave is one fired wave awaiting its serve: its fire number, the parent
// (or relay) its aggregate went to, the aggregate's Prev (non-zero: the
// wave was pipelined), the sub-batches folded into it — own operations
// first (From == transport.None) — and the own operations themselves.
// Fields are exported for NodeImage.
type wave struct {
	Seq  int64
	To   transport.NodeID
	Prev int64
	Subs []subBatch
	Own  []Op
}

// own returns the node's own contribution to the wave.
func (w *wave) own() ownWave { return ownWave{ops: w.Own, B: w.Subs[0].B} }

// getCtx is what the requester remembers about an in-flight GET.
type getCtx struct {
	born     int64
	localSeq int64
	value    int64
}

// heldServe is a replayed serve parked until its wave re-fires.
type heldServe struct {
	from    transport.NodeID
	assigns []batch.RunAssign
	epoch   int64
}

// standing is where a node stands with its parent between two waves.
type standing uint8

const (
	// active: the node owes its parent a report, so TIMEOUT fires its next
	// wave whether or not it carries anything — Algorithm 1 as printed.
	// Every node starts here, returns here whenever its place in the tree
	// may have changed, and under the simulator never leaves.
	active standing = iota
	// served: active, and the last fire was answered by an ordinary serve
	// with nothing happening since, so a decline may answer that serve.
	served
	// idle: the node declined. It fires only when it holds work, and its
	// parent takes its share of every wave as empty until it does.
	idle
)

// Node is one virtual node of the linearized De Bruijn network running the
// Skueue protocol. A process emulates three of them (§II-A); each is an
// independent transport.Handler.
//
// Fail-stop recovery images every field through NodeImage (snapshot.go);
// the statecomplete analyzer enforces that a field is either part of the
// capture/restore paths or carries an explicit ephemeral justification.
//
//skueue:snapshot-state NodeImage
type Node struct {
	cl   *Cluster
	self ldb.Ref
	// clientID identifies this node as a request issuer in completion
	// records; -1 for replacement nodes, which never issue requests.
	clientID int32

	// Topology (maintained under churn).
	pred, succ       ldb.Ref
	sibL, sibM, sibR ldb.Ref
	// ringSeq numbers what this node tells its ring neighbours and its
	// siblings (its pair, whether it and they are partial, and toldUp, the
	// node it reports to over a ring edge); predView and succView are what
	// pred and succ last told it (ringHello), sibViews what the left and
	// middle siblings told of their ring edges (sibHello, indexed by
	// ldb.Kind; a right node's are never read). up is the process's up
	// edge, read from the left and middle nodes' edges whenever one of
	// them changes (refreshUp), and the node holding it reports over it
	// only once the node at its other end has confirmed the latest number.
	ringSeq            int64
	predView, succView ringView
	sibViews           [2]sibView
	up                 ldb.Up
	// sibIn tracks which of the process's virtual nodes are integrated
	// ring members (indexed by ldb.Kind). A sibling-derived tree child is
	// only expected once that sibling announced its integration; joiners
	// of a process can be integrated in different update phases, and
	// waiting for a not-yet-integrated sibling would deadlock the wave.
	sibIn [3]bool
	//skueue:ephemeral -- derived route cache, recomputed from the topology on first use
	childCache []ldb.Ref
	//skueue:ephemeral -- validity bit of childCache, reset with it
	childCacheOK bool

	// disc is the mode strategy (queue, stack or heap): every
	// mode-specific behavior of the wave protocol lives behind it, along
	// with strategy-private state such as the stack's combiner and
	// unacknowledged-PUT accounting. See discipline.go.
	disc discipline

	// Anchor role and state (§III-D). The role follows the leftmost node;
	// it is transferred explicitly during update phases.
	anchorRole bool
	ast        batch.AnchorState

	// Request generation.
	nextElemSeq  int64
	nextLocalSeq int64

	// waveSeq counts this node's wave fires; each wave carries its number
	// upward and the parent's serve echoes it.
	waveSeq int64

	// standing says whether the next wave needs this node (see standing);
	// idleKids is the parent's side of it: the children that declined,
	// each with the WaveSeq its decline carried. An entry holds until a
	// newer aggregate of that child is folded (fire) or the tree is
	// rebuilt (an update phase), and a child with one counts as "reported,
	// empty" in the fire predicate.
	standing standing
	idleKids map[transport.NodeID]int64

	// Stage 1: own buffered operations (queue and heap mode, and
	// uncombined stack mode). The stack strategy's residual combiner
	// word lives inside disc.
	pending []Op

	// Stage 1: sub-batches received from children, waiting to be folded.
	waiting []subBatch
	// The waves fired and not yet served, oldest first; empty is the
	// paper's B = (0). With one in flight a node may fire the next as soon
	// as it holds work (see tryFire), so an operation does not wait for
	// its node's previous wave to come back.
	inFlight []wave

	// DHT fragment and in-flight GETs issued by this node.
	store       *dht.Store
	pendingGets map[uint64]getCtx

	// Replay-dedupe windows (member mode only; see replay.go): request
	// IDs of PUTs applied and GETs served here, so the re-executed tail
	// of a crashed peer's history cannot double-apply an operation.
	appliedPuts reqRing
	servedGets  reqRing
	// earlyReplies (member mode only; the stack strategy keeps the
	// analogous earlyAcks) parks link-replayed getReply frames that
	// arrive before the journal replay has
	// re-registered the operation they answer. After a fail-stop restart
	// the peer link re-delivers its unacked frames immediately, while
	// the restarted member is still re-injecting its journal tail wave
	// by wave — so a reply can land while pendingGets/awaitingAcks is
	// empty. Dropping it would lose the completion for good: when the
	// re-injected op finally sends its GET, the serving member's
	// servedGets window dedupes the request on the assumption that the
	// original reply is (or was) replayed by the link layer. Instead the
	// reply is parked here and consumed the moment the op re-registers.
	// Entries that are never claimed are genuine duplicates (the GET was
	// resolved before the snapshot cut, so its completion is already in
	// the restored history); request IDs are never reused, so a stale
	// entry can never be claimed by a different op, and the map is
	// bounded by the link-replay window.
	earlyReplies map[uint64]getReply
	// foldedWaves is the per-child cursor of the newest wave this node
	// has FOLDED into a wave of its own. A child's wave is folded only
	// once its Prev is (foldable): each child's waves are folded in fire
	// order on a channel that reorders, and a wave whose predecessor this
	// node returned is never folded — the child restores the two together.
	// In member mode the cursor also recognizes a restarted child's re-sent
	// aggregates: a restarted child re-fires the wave its snapshot rolled
	// back, and the re-sent aggregate can arrive after the original was
	// already folded — either already served, or still inside one of this
	// node's in-flight waves: folding it again would double-count its
	// operations at the anchor and orphan the fresh positions (nobody ever
	// fills or consumes them), wedging the structure. Instead the re-send
	// is dropped — the original serve, sent or still to come and
	// unacknowledged by the crashed child either way, answers the re-fired
	// wave.
	foldedWaves map[transport.NodeID]int64
	// heldServes (member mode only) parks replayed serves that arrive
	// AHEAD of this node's wave counter. After a restart the parent's
	// link replays every unacknowledged serve back-to-back — serve(w),
	// serve(w+1), ... — while the rolled-back node is still at wave w;
	// the later serves are not duplicates but the only copies of
	// assignments this incarnation has yet to reach, so they wait here
	// until the matching re-fire advances the counter.
	heldServes map[int64]heldServe
	// script (member mode only) is the crashed incarnation's fire log past
	// the image (see Cluster.ScriptFire): per fire number, the child waves
	// it folded. While it holds entries the node's fires repeat it, each
	// consuming its own; an image is not cut before they have, since the
	// log that fed the script is older than that image would be.
	script map[int64][]FoldedWaveImage

	// Churn (§IV) — see churn.go.
	churn churnState
}

var _ transport.Handler = (*Node)(nil)
var _ transport.ReadyHandler = (*Node)(nil)

// nb assembles the local neighbourhood view for the topology rules.
func (n *Node) nb() ldb.Neighborhood {
	return ldb.Neighborhood{
		Self: n.self, Pred: n.pred, Succ: n.succ,
		PredPred: n.predView.Far, SuccSucc: n.succView.Far,
		PredUp: n.predView.Up, SuccUp: n.succView.Up,
		PredPartial: n.predView.Partial, SuccPartial: n.succView.Partial,
		Whole:    n.sibIn == [3]bool{true, true, true},
		SibEdges: [2]ldb.Edges{n.sibViews[ldb.Left].Edges, n.sibViews[ldb.Middle].Edges},
		SibL:     n.sibL, SibM: n.sibM, SibR: n.sibR,
	}
}

// parent is ldb.Neighborhood.Parent read off the process's up edge as the
// node last worked it out (refreshUp), without assembling the neighbourhood.
func (n *Node) parent() (ldb.Ref, bool) {
	return n.up.Parent(n.self.Kind, n.sibL, n.sibM)
}

// toldUp is the node this node reports to when it holds its process's up
// edge, as its hellos say, else an invalid reference.
func (n *Node) toldUp() ldb.Ref {
	if n.up.Holder == n.self.Kind {
		return n.up.To
	}
	return ldb.Ref{ID: transport.None}
}

// partial reports whether the node has no way to the anchor through its
// process siblings yet: its left sibling, or a right node's middle one, is
// not a ring member (ldb.Neighborhood).
func (n *Node) partial() bool {
	return !n.sibIn[ldb.Left] || n.self.Kind == ldb.Right && !n.sibIn[ldb.Middle]
}

// children returns the aggregation-tree children: the structural children
// of §III-B plus any joining nodes this node relays for (§IV-A). A node
// that is itself still joining is a pure leaf hanging off its responsible
// node.
func (n *Node) children() []ldb.Ref {
	if n.churn.joining {
		return nil
	}
	if !n.childCacheOK {
		n.childCache = n.childCache[:0]
		for _, c := range n.nb().Children() {
			// Gate sibling-derived children on their integration; ring
			// successors are ring members by construction.
			if c.ID == n.sibM.ID && n.self.Kind == ldb.Left && !n.sibIn[ldb.Middle] {
				continue
			}
			if c.ID == n.sibR.ID && n.self.Kind == ldb.Middle && !n.sibIn[ldb.Right] {
				continue
			}
			n.childCache = append(n.childCache, c)
		}
		n.childCacheOK = true
	}
	if len(n.churn.joiners) == 0 {
		return n.childCache
	}
	out := make([]ldb.Ref, 0, len(n.childCache)+len(n.churn.joiners))
	out = append(out, n.childCache...)
	for _, j := range n.churn.joiners {
		out = append(out, j.Ref)
	}
	return out
}

// invalidateTopology drops what was derived from the old neighbourhood
// after pred/succ/sibling updates: the child cache, and the node's standing
// — its parent may be another node now, one that never heard the decline.
func (n *Node) invalidateTopology() {
	n.childCacheOK = false
	n.standing = active
}

// OnInit is a no-op: bootstrap wiring happens in Cluster before the run,
// and runtime spawns (join, leave replacement) wire explicitly.
func (n *Node) OnInit(ctx *transport.Context) {}

// OnTimeout is the paper's TIMEOUT action (Algorithm 1): advance the churn
// clock, then fire the next wave if its inputs are complete. A node that
// stands idle lets the tick pass unless a join or leave level is pending;
// for every other node TIMEOUT is what makes it eventually send, empty
// batch or not — the first wave after bootstrap and after every update
// phase starts here, and so does every wave of the simulator.
func (n *Node) OnTimeout(ctx *transport.Context) {
	if n.churn.departed {
		return
	}
	n.churn.tick(ctx, n)
	n.tryFire(ctx, true)
}

// OnReady is the readiness hook (transport.ReadyHandler): a backend that
// calls it after delivering inputs lets the wave move the moment its last
// input arrived instead of at the next TIMEOUT, and lets a node with
// nothing to send say so once (decline) instead of sending an empty batch
// every tick.
func (n *Node) OnReady(ctx *transport.Context) {
	n.tryFire(ctx, false)
	n.decline(ctx)
}

// tryFire is the fire predicate of Algorithm 1, with work first. A node
// that may pipeline (pipelines) and whose next wave would carry operations
// (carriesOps) fires at once, whether or not waves are in flight and
// whether or not every child has sent — the anchor's triad too, which is
// served within the round, so never has a wave in flight, and would
// otherwise fire only as often as its slowest child (DESIGN.md §4, the
// backlog hazard). Everything else is Algorithm 1: when stage 4 is not gated
// and every child contributed a sub-batch — or stands idle, which is a
// standing empty contribution — fold the waiting data into a wave and push
// it towards the anchor, or, at the anchor, assign positions immediately.
// That covers waves without operations, churn waves, and every wave of the
// stack. On the tick a node that does not stand idle fires whatever it has,
// as Algorithm 1 says. Off the tick, and on the tick of an idle node, a wave
// fires only if it carries work, so a cluster with nothing to do exchanges
// nothing. A node that may not pipeline fires nothing past a wave in
// flight. Either way a call fires at most one wave, so a node sends at most
// one aggregate per TIMEOUT or readiness pass.
func (n *Node) tryFire(ctx *transport.Context, onTick bool) {
	if n.churn.departed || n.churn.updatePhase || n.churn.frozen() {
		return
	}
	if len(n.waiting) > 0 {
		n.bounceStaleWaiting(ctx)
	}
	if n.stage4Gated() || n.parentJoining() {
		return
	}
	if len(n.script) > 0 {
		// Restart replay: the next fire repeats the logged one.
		for _, f := range n.script[n.waveSeq+1] {
			if !n.hasWaitingWave(f) {
				return
			}
		}
		n.fire(ctx)
		return
	}
	if n.pipelines() && n.carriesOps() {
		n.fire(ctx)
		return
	}
	if len(n.inFlight) > 0 {
		return
	}
	for _, k := range n.children() {
		if !n.hasWaitingFrom(k.ID) && !n.standsIdle(k.ID) {
			return
		}
	}
	if n.holdsWork(onTick) || onTick && n.standing != idle {
		n.fire(ctx)
	}
}

// pipelines reports whether the node may fire without waiting for every
// child, and past its waves in flight. The discipline must allow it (the
// stack does not), its churn state must be quiet and no waiting sub-batch
// may carry a join or leave level: a wave that carries churn, or a joiner's
// share, is fired under Algorithm 1 so that the wave the anchor flags for an
// update phase holds it (§IV-A). And with waves in flight its parent must be
// the one they went to: a child's waves chain (subBatch.Prev) at one parent
// only, and one sent elsewhere would wait there for a predecessor that
// never comes. A node that takes the anchor role over with waves still in
// flight waits for them.
func (n *Node) pipelines() bool {
	if !n.disc.pipelines() || !n.churnQuiet() {
		return false
	}
	for _, w := range n.waiting {
		if w.B.J+w.B.L > 0 {
			return false
		}
	}
	if len(n.inFlight) == 0 {
		return true
	}
	parent, ok := n.parent()
	return ok && parent.ID == n.inFlight[0].To
}

// carriesOps reports whether a wave fired now would carry operations: the
// node's own, or a child's foldable sub-batch that holds some. With nothing
// in flight a child's empty wave is not work: fired on it, a node would stop
// waiting for its other children, which Algorithm 1 keeps doing for waves
// with nothing in them. With a wave in flight it is: its sender waits for
// the serve, and the sender's next wave, which may carry operations, is
// foldable only once this one is. So is a child's wave fired past another
// in flight (Prev): the child pipelines, firing every round, and a parent
// that waited for a slower child meanwhile would fold the child's waves one
// per fire, a round behind for as long as the child keeps firing — each of
// its operations a round or two slower (EXPERIMENTS.md, "Read the whole
// neighbourhood").
func (n *Node) carriesOps() bool {
	if len(n.inFlight) > 0 {
		return n.holdsWork(false)
	}
	return n.disc.buffered(n) || slices.ContainsFunc(n.waiting, func(w subBatch) bool {
		return (w.B.NumOps() > 0 || w.Prev != 0) && n.foldable(w)
	})
}

// parentJoining reports whether stage 1 must hold because the node's tree
// parent does not know yet that the node reports to it. The triad of a
// joining process can be integrated over several update phases (see sibIn),
// and a middle node integrated ahead of its left sibling — or a right node
// ahead of its middle — has no parent to report to until the sibling's
// sibHello. The sibling would bounce every batch (it has no children while
// it joins), and a node that re-fires on readiness would bounce it back at
// message speed, between two nodes of one process — one member's runner,
// which then does nothing else. The node holding its process's up edge
// reports over a ring edge, and after what it tells its ring neighbours
// changed (ringChanged) it holds the same way until the node at the other
// end has confirmed it (ringView.Seen): before that, the parent cannot tell
// that the node reports to it and counts it as no child
// (ldb.Neighborhood.Children). A left node below a middle node that holds
// the up edge belongs to a whole process, whose middle node is a member.
func (n *Node) parentJoining() bool {
	if n.anchorRole || n.churn.joining {
		return false // assigns itself, or reports to its relay
	}
	switch up := n.toldUp(); {
	case up.Valid():
		if up.Point == n.succ.Point {
			return n.succView.Seen < n.ringSeq
		}
		return n.predView.Seen < n.ringSeq
	case n.self.Kind == ldb.Middle:
		return !n.sibIn[ldb.Left]
	case n.self.Kind == ldb.Right:
		return !n.sibIn[ldb.Middle]
	}
	return false
}

// holdsWork reports whether a wave fired now would carry anything: own
// operations, a child's foldable sub-batch (its sender waits for the serve)
// or, on the tick only, churn — a join/leave level, or the node's own
// pending leave. The level rides in every batch until an update phase
// consumed it (§IV); counted off the tick too it would re-fire the node the
// moment each serve came back. A leaving node reports on every tick so that
// its parent stops counting it as idle before the replacement takes its
// place.
func (n *Node) holdsWork(onTick bool) bool {
	return n.disc.buffered(n) || slices.ContainsFunc(n.waiting, n.foldable) ||
		onTick && (n.churn.leaving || n.churn.takeJoinCount()+n.churn.takeLeaveCount() > 0)
}

// foldable reports whether a waiting sub-batch may be folded now: its
// sender had no other wave in flight when it fired it, or this node has
// folded that one. A channel that reorders can deliver a child's wave
// before its predecessor; the wave waits here until the predecessor is
// folded. And a wave whose predecessor this node returned never becomes
// foldable: the child took both back together (see restoreWaves).
func (n *Node) foldable(w subBatch) bool {
	return w.Prev == 0 || w.Prev <= n.foldedWaves[w.From]
}

// standsIdle reports whether child id declined and has sent nothing since.
func (n *Node) standsIdle(id transport.NodeID) bool {
	_, ok := n.idleKids[id]
	return ok && !n.hasWaitingFrom(id)
}

// decline answers the serve of the node's last wave when the next wave
// would be empty all the way down: nothing buffered, nothing waiting, no
// stage-4 wait, no churn business, every child standing idle. One frame to
// the parent replaces an empty aggregate per tick; the anchor, having no
// parent, just stands idle. Only the readiness hook calls it.
func (n *Node) decline(ctx *transport.Context) {
	if n.standing != served || n.holdsWork(false) || n.stage4Gated() || !n.churnQuiet() {
		return
	}
	for _, k := range n.children() {
		if !n.standsIdle(k.ID) {
			return
		}
	}
	n.standing = idle
	if parent, ok := n.parent(); ok {
		n.cl.metrics.Declines++
		ctx.Send(parent.ID, declineMsg{From: n.self, WaveSeq: n.waveSeq})
	}
}

// noteDecline is the parent's side of decline: remember that the child
// stands idle, unless a newer aggregate of its is already folded or
// waiting here — then the decline is a stale copy (a restarted child
// re-executing its past) and the child is about to learn as much.
func (n *Node) noteDecline(m declineMsg) {
	id := m.From.ID
	stale := !n.isCurrentChild(id) || m.WaveSeq < n.foldedWaves[id]
	for _, w := range n.waiting {
		stale = stale || w.From == id && w.WaveSeq > m.WaveSeq
	}
	if stale {
		n.cl.logf("core: %v dropping stale decline of %v after wave %d", n.self, m.From, m.WaveSeq)
		return
	}
	if n.idleKids == nil {
		n.idleKids = make(map[transport.NodeID]int64)
	}
	n.idleKids[id] = m.WaveSeq
}

// bounceStaleWaiting returns buffered sub-batches whose senders are no
// longer our children. Keeping them could deadlock: the stale batch's
// sender blocks on being served, while the wave that would serve it blocks
// (transitively) on that sender's next batch. Bouncing makes the sender
// re-buffer and resubmit through its current parent.
func (n *Node) bounceStaleWaiting(ctx *transport.Context) {
	kids := n.children()
	keep := n.waiting[:0]
	for _, w := range n.waiting {
		current := false
		for _, k := range kids {
			if k.ID == w.From {
				current = true
				break
			}
		}
		if current {
			keep = append(keep, w)
		} else {
			ctx.Send(w.From, rejectBatch{B: w.B, WaveSeq: w.WaveSeq})
		}
	}
	n.waiting = keep
}

// stage4Gated reports whether the strategy's completion wait (§VI for
// the stack) blocks the next aggregation phase.
func (n *Node) stage4Gated() bool {
	return n.disc.gated(n)
}

// isCurrentChild reports whether id is one of our aggregation-tree
// children right now.
func (n *Node) isCurrentChild(id transport.NodeID) bool {
	for _, c := range n.children() {
		if c.ID == id {
			return true
		}
	}
	return false
}

// hasWaitingFrom reports whether child id has a sub-batch here that the
// next fire can fold.
func (n *Node) hasWaitingFrom(id transport.NodeID) bool {
	for _, w := range n.waiting {
		if w.From == id && n.foldable(w) {
			return true
		}
	}
	return false
}

func (n *Node) hasWaitingWave(f FoldedWaveImage) bool {
	for _, w := range n.waiting {
		if w.From == f.From && w.WaveSeq == f.WaveSeq {
			return true
		}
	}
	return false
}

// takeOwnOps drains the node's own buffered operations into an ownWave.
func (n *Node) takeOwnOps() ownWave {
	return n.disc.takeOwn(n)
}

// takeWaiting drains the sub-batches for the next wave: one per child, its
// oldest foldable one, so every child's waves are folded one per fire in
// the order it fired them. A waiting wave of that child older still can
// never be folded (its predecessor was returned, and the child took both
// back): it is dropped.
func (n *Node) takeWaiting() []subBatch {
	if len(n.script) > 0 {
		// Restart replay: exactly the child waves the logged fire folded.
		want := n.script[n.waveSeq+1]
		delete(n.script, n.waveSeq+1)
		var chosen, rest []subBatch
		for _, w := range n.waiting {
			if slices.Contains(want, FoldedWaveImage{From: w.From, WaveSeq: w.WaveSeq}) {
				chosen = append(chosen, w)
			} else {
				rest = append(rest, w)
			}
		}
		n.waiting = rest
		return chosen
	}
	chosen := make([]subBatch, 0, len(n.waiting))
	for _, w := range n.waiting {
		if !n.foldable(w) {
			continue
		}
		i := slices.IndexFunc(chosen, func(c subBatch) bool { return c.From == w.From })
		if i < 0 {
			chosen = append(chosen, w)
		} else if w.WaveSeq < chosen[i].WaveSeq {
			chosen[i] = w
		}
	}
	rest := n.waiting[:0]
	for _, w := range n.waiting {
		i := slices.IndexFunc(chosen, func(c subBatch) bool { return c.From == w.From })
		if i < 0 || w.WaveSeq > chosen[i].WaveSeq {
			rest = append(rest, w)
		}
	}
	clear(n.waiting[len(rest):])
	n.waiting = rest
	return chosen
}

// fire executes the Stage 1 transfer W -> B (Algorithm 1): the node's own
// operations and one sub-batch per child become a new wave in flight.
func (n *Node) fire(ctx *transport.Context) {
	own := n.takeOwnOps()
	own.B.J = n.churn.takeJoinCount()
	own.B.L = n.churn.takeLeaveCount()
	taken := n.takeWaiting()
	if len(n.idleKids) > 0 {
		// A child that sent an aggregate after its decline no longer stands
		// idle; the others contribute their standing empty batch.
		for _, sb := range taken {
			if w, ok := n.idleKids[sb.From]; ok && w < sb.WaveSeq {
				delete(n.idleKids, sb.From)
			}
		}
		for _, k := range n.children() {
			if n.standsIdle(k.ID) {
				n.cl.metrics.EmptyWaves++
			}
		}
	}
	subs := make([]subBatch, 0, 1+len(taken))
	subs = append(subs, subBatch{From: transport.None, B: own.B})
	subs = append(subs, taken...)
	if n.cl.memberMode() && len(subs) > 2 {
		// Fold child sub-batches in sorted order, not arrival order: the
		// fold order fixes how a later serve's intervals decompose over the
		// children, and after a fail-stop restart the re-fired wave must
		// decompose exactly like its crashed incarnation did even though
		// the replayed sub-batches may arrive interleaved differently across
		// links. Any fold order is a valid serialization; a deterministic
		// one makes replay exact.
		sort.Slice(subs[1:], func(i, j int) bool { return subs[1+i].From < subs[1+j].From })
	}
	// Advance the folded-wave cursors: from here on the child's next wave
	// is foldable, and a duplicate of any of these sub-batches is a restart
	// re-send to drop.
	for _, sb := range subs[1:] {
		if sb.WaveSeq == 0 {
			continue
		}
		if n.foldedWaves == nil {
			n.foldedWaves = make(map[transport.NodeID]int64)
		}
		if sb.WaveSeq > n.foldedWaves[sb.From] {
			n.foldedWaves[sb.From] = sb.WaveSeq
		}
	}
	var prev int64
	if k := len(n.inFlight); k > 0 {
		prev = n.inFlight[k-1].Seq
	}

	parts := make([]batch.Batch, len(subs))
	for i, sb := range subs {
		parts[i] = sb.B
	}
	combined := batch.Combine(parts...)
	n.cl.metrics.noteBatch(combined)

	w := wave{Seq: n.waveSeq + 1, Prev: prev, Subs: subs, Own: own.ops}
	switch parent, ok := n.parent(); {
	case n.anchorRole:
		n.waveSeq++
		n.inFlight = append(n.inFlight, w)
		n.noteFire()
		n.cl.stampFire(w.Own, ctx.Now())
		n.assignAndServe(ctx, combined)
		return
	case n.churn.joining:
		// Joining nodes relay their requests through the responsible node,
		// which treats them as extra aggregation-tree children (§IV-A).
		w.To = n.churn.relayVia.ID
	case ok:
		w.To = parent.ID
	default:
		// Structurally leftmost but not (yet) holding the anchor role:
		// happens only transiently during churn; hold the batch until the
		// role arrives.
		n.restoreOwn(own, subs[1:])
		return
	}
	n.waveSeq++
	n.inFlight = append(n.inFlight, w)
	n.noteFire()
	n.cl.stampFire(w.Own, ctx.Now())
	ctx.Send(w.To, aggregateMsg{From: n.self, B: combined, WaveSeq: n.waveSeq, Prev: w.Prev})
	n.takeHeldServe(ctx)
}

// flightIndex returns the position of wave seq in the in-flight list, or -1.
func (n *Node) flightIndex(seq int64) int {
	for i := range n.inFlight {
		if n.inFlight[i].Seq == seq {
			return i
		}
	}
	return -1
}

// takeHeldServe applies a replayed serve parked for the wave this node
// just fired (see heldServes). The aggregate was still sent — the parent
// recognizes it as already served and drops it — so ordering matches a
// serve that had arrived the instant after the fire.
func (n *Node) takeHeldServe(ctx *transport.Context) {
	if len(n.heldServes) == 0 {
		return
	}
	hs, ok := n.heldServes[n.waveSeq]
	if !ok {
		return
	}
	delete(n.heldServes, n.waveSeq)
	n.cl.logf("core: %v applying held serve for wave %d (restart replay)", n.self, n.waveSeq)
	i := len(n.inFlight) - 1
	if !n.assignsFit(&n.inFlight[i], hs.assigns) {
		// No second copy of a held serve exists; refusing it stops this
		// node's waves rather than corrupting positions. Replay of an
		// unchanged snapshot+journal is deterministic, so reaching this
		// line means a replay-divergence bug — surface it loudly.
		n.cl.logf("core: %v REFUSING held serve with mismatched shape for wave %d — replay diverged; member wedged pending restart (state remains recoverable)", n.self, n.waveSeq)
		return
	}
	n.serve(ctx, i, hs.assigns, hs.epoch, hs.from)
}

// noteFire commits a wave fire: the aggregate on its way tells the parent
// the node is active again, and the hosting layer hears of the fire
// (restart replay, SetOnFire). It runs only on the paths that actually send
// or assign the batch — an undone fire (restoreOwn) must not count.
func (n *Node) noteFire() {
	n.standing = active
	m := &n.cl.metrics
	if len(n.inFlight) > 1 {
		m.PipelinedFires++
	}
	m.MaxWavesInFlight = max(m.MaxWavesInFlight, len(n.inFlight))
	if n.cl.onFire != nil {
		var folded []FoldedWaveImage
		for _, sb := range n.inFlight[len(n.inFlight)-1].Subs[1:] {
			folded = append(folded, FoldedWaveImage{From: sb.From, WaveSeq: sb.WaveSeq})
		}
		n.cl.onFire(n.self.ID, n.waveSeq, folded)
	}
}

// restoreOwn undoes a fire that could not proceed (rare churn corner), or
// one the parent returned (restoreWaves). The children's sub-batches go back
// to waiting unfolded, and so each child's folded-wave cursor goes back to
// the wave before: a later wave of the child that rides on one of them is
// foldable only once that one is folded again, and never if this node
// returns it to the child, which then takes both back (see foldable).
func (n *Node) restoreOwn(own ownWave, kids []subBatch) {
	n.disc.restoreOwn(n, own)
	for _, sb := range kids {
		if sb.WaveSeq != 0 && n.foldedWaves[sb.From] >= sb.WaveSeq {
			n.foldedWaves[sb.From] = sb.WaveSeq - 1
		}
	}
	n.waiting = append(kids, n.waiting...)
}

// restoreWaves takes in-flight wave i and every later one back after the
// parent returned wave i: their own operations go back ahead of whatever
// was buffered since, their children's sub-batches back into waiting. A
// later wave rides on i (its Prev chain leads there), so the parent folds
// none of them; restoring i alone would let the newer operations overtake
// it. Newest first, so that the oldest ends up in front.
func (n *Node) restoreWaves(i int) {
	for j := len(n.inFlight) - 1; j >= i; j-- {
		w := &n.inFlight[j]
		n.restoreOwn(w.own(), w.Subs[1:])
	}
	clear(n.inFlight[i:])
	n.inFlight = n.inFlight[:i]
}

// assignAndServe is Stage 2 at the anchor (Algorithm 2: ASSIGN).
func (n *Node) assignAndServe(ctx *transport.Context, combined batch.Batch) {
	n.cl.metrics.WavesAssigned++
	epoch := n.churn.anchorObserve(n, combined)
	assigns := n.disc.assign(&n.ast, combined)
	n.cl.metrics.noteQueueSize(n.ast.Size())
	n.serve(ctx, len(n.inFlight)-1, assigns, epoch, transport.None)
}

// serve is Stage 3 (Algorithm 2: SERVE) for in-flight wave i: decompose
// the run assignments over the wave's sub-batches and forward each share —
// down the tree for child batches, into Stage 4 for own operations. A
// non-zero epoch starts the update phase of §IV.
func (n *Node) serve(ctx *transport.Context, i int, assigns []batch.RunAssign, epoch int64, from transport.NodeID) {
	w := n.inFlight[i]
	n.inFlight = slices.Delete(n.inFlight, i, i+1)
	if len(n.inFlight) == 0 {
		n.standing = served
	}

	if epoch != 0 && n.churn.lastEpoch >= epoch {
		// In the phase already: a parent the tree gave this node mid-phase
		// handed it the epoch first (acceptEpoch), and that entry handed it
		// on to every child. The flagged serve only answers the wave; its
		// sender is acknowledged at once.
		ctx.Send(from, updateAck{Epoch: epoch})
		epoch = 0
	}
	if epoch != 0 {
		n.churn.enterUpdatePhase(ctx, from, epoch, w.Subs)
	}
	for _, sb := range w.Subs {
		d := n.disc.decompose(assigns, sb.B)
		if sb.From == transport.None {
			n.applyOwn(ctx, w.own(), d)
		} else {
			ctx.Send(sb.From, serveMsg{Assigns: d, UpdateEpoch: epoch, WaveSeq: sb.WaveSeq})
		}
	}
	if epoch != 0 {
		n.churn.handEpochDown(ctx, n, w.Subs)
		n.churn.startIntegration(ctx, n)
		return
	}
	// A wave older than the flagged one may come back during the phase;
	// the phase waits for it (maybeFinishPhase).
	n.churn.maybeFinishPhase(ctx, n)
}

// applyOwn is Stage 4 for the node's own operations: turn every assigned
// position into a PUT or GET, and complete ⊥ dequeues immediately.
func (n *Node) applyOwn(ctx *transport.Context, own ownWave, d []batch.RunAssign) {
	n.cl.stampServe(n, own.ops, ctx.Now())
	cur := 0
	for ri, k := range own.B.Runs {
		ops := n.disc.expand(ri, d[ri], k)
		for j := int64(0); j < k; j++ {
			n.dispatchOp(ctx, own.ops[cur], ops[j], batch.IsDeqIndex(ri))
			cur++
		}
	}
	if cur != len(own.ops) {
		panic(fmt.Sprintf("core: node %v own-op bookkeeping mismatch: %d runs ops, %d pending", n.self, cur, len(own.ops)))
	}
}

// resolveGet completes an in-flight GET of this node's client with the
// given reply. The caller has checked that pendingGets holds the request.
func (n *Node) resolveGet(ctx *transport.Context, m getReply) {
	gc := n.pendingGets[m.ReqID]
	delete(n.pendingGets, m.ReqID)
	n.cl.recordCompletion(seqcheck.Completion{
		Client: n.clientID, LocalSeq: gc.localSeq,
		Kind: seqcheck.Dequeue, Elem: m.Entry.Elem,
		Value: gc.value, Born: gc.born, Done: ctx.Now(), ReqID: m.ReqID,
		Blob: m.Entry.Blob,
	})
}

func (n *Node) dispatchOp(ctx *transport.Context, po Op, oa batch.OpAssign, isDeq bool) {
	if isDeq && oa.Pos == batch.NoPosition {
		// Empty-structure dequeue: returns ⊥ right here (§III-E).
		n.cl.recordCompletion(seqcheck.Completion{
			Client: n.clientID, LocalSeq: po.LocalSeq,
			Kind: seqcheck.Dequeue, Bottom: true,
			Value: oa.Value, Born: po.Born, Done: ctx.Now(), ReqID: po.ReqID,
		})
		return
	}
	key := n.cl.keyHash.Frac(uint64(oa.Pos))
	if isDeq {
		bound := n.disc.opTicket(oa)
		n.pendingGets[po.ReqID] = getCtx{born: po.Born, localSeq: po.LocalSeq, value: oa.Value}
		if m, ok := n.earlyReplies[po.ReqID]; ok {
			// The reply already arrived via link replay while this op was
			// still being re-injected from the journal (see earlyReplies).
			// Complete it here; the serving member would only dedupe a
			// re-sent GET anyway.
			delete(n.earlyReplies, po.ReqID)
			n.cl.logf("core: %v claiming parked reply for GET %d (restart replay)", n.self, po.ReqID)
			n.resolveGet(ctx, m)
			return
		}
		n.sendRouted(ctx, key, getReq{Pos: oa.Pos, Bound: bound, Requester: n.self.ID, ReqID: po.ReqID})
		return
	}
	ticket := n.disc.opTicket(oa)
	n.disc.trackPut(n, po.ReqID)
	n.sendRouted(ctx, key, putReq{
		Pos: oa.Pos, Ticket: ticket, Elem: po.Elem, Blob: po.Blob,
		Requester: n.self.ID, ReqID: po.ReqID, Born: po.Born,
		Client: n.clientID, LocalSeq: po.LocalSeq, Value: oa.Value, Pri: po.Pri,
	})
}

// sendRouted starts LDB routing of a payload towards key, beginning at
// this node. A joining node that is not yet part of the ring injects the
// message through the node responsible for it instead (§IV-A).
func (n *Node) sendRouted(ctx *transport.Context, key fixpoint.Frac, inner any) {
	if n.churn.relayVia.Valid() {
		ctx.Send(n.churn.relayVia.ID, routedMsg{RS: ldb.RouteState{Target: key, BitsLeft: -1}, Inner: inner})
		return
	}
	rs := n.nb().NewRoute(key)
	n.routeStep(ctx, routedMsg{RS: rs, Inner: inner})
}

// routeStep advances a routed message by one hop, or consumes it here.
func (n *Node) routeStep(ctx *transport.Context, m routedMsg) {
	if n.churn.joining {
		// We do not know our ring neighbours yet; deciding now could
		// misdeliver. Hold the message until integration (§IV-A: a request
		// "can wait until it has learned to know a node that is closer").
		n.churn.routedHold = append(n.churn.routedHold, m)
		return
	}
	if m.RS.BitsLeft < 0 {
		// Injected by a joiner through us: start a fresh route here.
		m.RS = n.nb().NewRoute(m.RS.Target)
	}
	nb := n.nb()
	if !n.sibIn[ldb.Middle] {
		// The route's first hop from a left or right node is the jump to the
		// middle sibling, and that sibling is not a ring member yet: it would
		// hold what it cannot route (routedHold), for ever if the message is
		// its own JOIN request. Without it the route walks the ring to
		// another middle node and keeps its bits.
		nb.SibM = ldb.Ref{ID: transport.None}
	}
	next, out, deliver := nb.NextHop(m.RS)
	if !deliver && out.BitsLeft < m.RS.BitsLeft && !n.sibIn[next.Kind] {
		// A De Bruijn hop to a sibling that is not a ring member yet, with
		// the same hazard. The remaining bits only shorten the way: finish
		// by the linear walk instead.
		m.RS.BitsLeft = 0
		next, out, deliver = nb.NextHop(m.RS)
	}
	if deliver {
		n.cl.metrics.noteRoute(out.Hops)
		n.deliverRouted(ctx, m.RS.Target, m.Inner)
		return
	}
	m.RS = out
	ctx.Send(next.ID, m)
}

// deliverRouted handles a payload that routing delivered at this node.
func (n *Node) deliverRouted(ctx *transport.Context, key fixpoint.Frac, inner any) {
	switch inner.(type) {
	case putReq, getReq, migrateEntry, migrateParked:
		n.dispatchDHT(ctx, key, inner)
	default:
		n.handleRoutedChurn(ctx, inner)
	}
}

// dispatchDHT places a DHT payload with the node that currently owns its
// key: a relayed joiner's sub-interval (§IV-A), this node itself, or —
// when ownership moved while the payload was in flight — the ring, via a
// fresh route. This single choke point makes data placement self-healing
// under churn.
func (n *Node) dispatchDHT(ctx *transport.Context, key fixpoint.Frac, inner any) {
	if j, ok := n.churn.joinerFor(key, n.self); ok {
		ctx.Send(j.Ref.ID, directMsg{Key: key, Inner: inner})
		return
	}
	if n.churn.joining {
		if !n.churn.rangeValid {
			// Our responsible node sent this for the range it is handing us,
			// and it outran the adoption that names the range and the relay
			// to bounce through; hold it like a handover or transfer.
			n.churn.heldDirects = append(n.churn.heldDirects, directMsg{Key: key, Inner: inner})
			return
		}
		if fixpoint.InCWRange(key, n.churn.rangeFrom, n.churn.rangeEnd) {
			n.handleDHT(ctx, inner)
			return
		}
		// Not ours: bounce through the responsible node.
		ctx.Send(n.churn.relayVia.ID, directMsg{Key: key, Inner: inner})
		return
	}
	if !n.nb().Responsible(key) {
		n.sendRouted(ctx, key, inner)
		return
	}
	n.handleDHT(ctx, inner)
}

// handleDHT executes a delivered PUT or GET against the local fragment.
func (n *Node) handleDHT(ctx *transport.Context, inner any) {
	switch m := inner.(type) {
	case putReq:
		if n.cl.memberMode() && (n.appliedPuts.has(m.ReqID) || n.store.Has(m.Pos, m.Ticket)) {
			// Replayed duplicate after a fail-stop restart: the element
			// was already stored — and possibly already consumed again,
			// which is why the request-ID window backs up the positional
			// check — and its completion recorded. Re-acknowledge: the
			// ack, not the store, may be what the crash swallowed.
			n.cl.logf("core: %v dropping duplicate PUT %d at pos=%d (restart replay)", n.self, m.ReqID, m.Pos)
			if n.disc.ackPuts() || n.cl.memberMode() {
				ctx.Send(m.Requester, putAck{ReqID: m.ReqID})
			}
			return
		}
		released := n.store.PutBlob(m.Pos, m.Ticket, m.Elem, m.Blob)
		if n.cl.memberMode() {
			n.appliedPuts.add(m.ReqID)
		}
		// The enqueue finishes the moment its element is stored (§VII).
		n.cl.recordCompletion(seqcheck.Completion{
			Client: m.Client, LocalSeq: m.LocalSeq,
			Kind: seqcheck.Enqueue, Elem: m.Elem,
			Value: m.Value, Born: m.Born, Done: ctx.Now(), ReqID: m.ReqID,
			Pri: m.Pri,
		})
		if n.disc.ackPuts() || n.cl.memberMode() {
			ctx.Send(m.Requester, putAck{ReqID: m.ReqID})
		}
		for _, rel := range released {
			n.noteServedGet(rel.Waiter.ReqID)
			ctx.Send(rel.Waiter.Requester, getReply{ReqID: rel.Waiter.ReqID, Entry: rel.Entry})
		}
	case getReq:
		if n.cl.memberMode() && n.servedGets.has(m.ReqID) {
			// Replayed duplicate of a GET this node already served: the
			// original reply is replayed by the link layer (it stays
			// unacknowledged until the requester's snapshot covers it).
			// Serving — or parking — again would consume or steal a
			// second element; in stack mode, where positions are reused,
			// a stale parked waiter would swallow a future push.
			n.cl.logf("core: %v dropping duplicate GET %d at pos=%d (restart replay)", n.self, m.ReqID, m.Pos)
			return
		}
		if ent, ok := n.store.Get(m.Pos, m.Bound); ok {
			n.noteServedGet(m.ReqID)
			ctx.Send(m.Requester, getReply{ReqID: m.ReqID, Entry: ent})
			return
		}
		// GET outran its PUT: park until the element arrives (§III-F).
		n.store.Park(m.Pos, dht.Waiter{Requester: m.Requester, ReqID: m.ReqID, Bound: m.Bound})
		n.cl.metrics.ParkedGets++
	case migrateEntry:
		if n.cl.memberMode() && n.store.Has(m.Ent.Pos, m.Ent.Ticket) {
			n.cl.logf("core: %v dropping duplicate migrated entry at pos=%d (restart replay)", n.self, m.Ent.Pos)
			return
		}
		for _, rel := range n.store.Insert(m.Ent) {
			n.noteServedGet(rel.Waiter.ReqID)
			ctx.Send(rel.Waiter.Requester, getReply{ReqID: rel.Waiter.ReqID, Entry: rel.Entry})
		}
	case migrateParked:
		// The element may already be here (it migrated first).
		if ent, ok := n.store.Get(m.Pos, m.W.Bound); ok {
			n.noteServedGet(m.W.ReqID)
			ctx.Send(m.W.Requester, getReply{ReqID: m.W.ReqID, Entry: ent})
			return
		}
		n.store.Park(m.Pos, m.W)
	default:
		panic(fmt.Sprintf("core: %v: handleDHT got %T", n.self, inner))
	}
}

// noteServedGet records a served GET in the replay-dedupe window (member
// mode; see replay.go).
func (n *Node) noteServedGet(reqID uint64) {
	if n.cl.memberMode() {
		n.servedGets.add(reqID)
	}
}

// OnMessage dispatches a delivered message (a remote action call).
func (n *Node) OnMessage(ctx *transport.Context, from transport.NodeID, payload any) {
	if n.churn.departed {
		// A replaced node only forwards until the ring forgets it (§IV-B).
		n.handleDeparted(ctx, from, payload)
		return
	}
	switch m := payload.(type) {
	case aggregateMsg:
		if !n.isCurrentChild(m.From.ID) {
			// The sender is not (or no longer) our child: its batch was in
			// flight across a topology change (integration, replacement).
			// Bounce it back so the sender re-buffers its operations and
			// resubmits through its current parent; queueing it here could
			// deadlock the wave (the new tree never consumes it).
			ctx.Send(m.From.ID, rejectBatch{B: m.B, WaveSeq: m.WaveSeq})
			return
		}
		sb := subBatch{From: m.From.ID, B: m.B, WaveSeq: m.WaveSeq, Prev: m.Prev}
		if n.churn.returnsInPhase(sb) {
			// Fired before the sender entered the phase and not part of the
			// flagged wave, so not to be carried across the phase (see
			// handEpochDown).
			ctx.Send(m.From.ID, rejectBatch{B: m.B, WaveSeq: m.WaveSeq})
			return
		}
		if m.WaveSeq != 0 && m.WaveSeq <= n.foldedWaves[m.From.ID] {
			// A restarted child re-sent a wave this node already folded:
			// the original serve — sent, or still to come with this
			// node's in-flight batch — answers the child, so the re-send
			// must not be consumed again (see foldedWaves).
			n.cl.logf("core: %v dropping re-sent sub-batch from %v for already-folded wave %d (restart replay)",
				n.self, m.From, m.WaveSeq)
			return
		}
		for i := range n.waiting {
			if n.waiting[i].From == m.From.ID && n.waiting[i].WaveSeq == m.WaveSeq {
				// A restarted child's re-fire of a wave still buffered here,
				// regenerated from replayed inputs: it replaces the original.
				n.cl.logf("core: %v replacing sub-batch from restarted child %v (wave %d)", n.self, m.From, m.WaveSeq)
				n.waiting[i] = sb
				return
			}
		}
		// Several waves of one child wait here when it pipelines, or when
		// a restarted child's link replays its unacknowledged aggregates
		// back-to-back; fire folds them one per wave, in order.
		n.waiting = append(n.waiting, sb)
	case declineMsg:
		n.noteDecline(m)
	case serveMsg:
		if m.WaveSeq == 0 && m.UpdateEpoch != 0 {
			n.acceptEpoch(ctx, from, m.UpdateEpoch, m.Folded)
			return
		}
		// A serve answers the in-flight wave whose number it echoes.
		i := n.flightIndex(m.WaveSeq)
		if i < 0 {
			if !n.cl.memberMode() {
				panic(fmt.Sprintf("core: node %v received SERVE for wave %d, which is not in flight", n.self, m.WaveSeq))
			}
			if m.WaveSeq <= n.waveSeq {
				// A serve for a wave this node already completed: around a
				// fail-stop restart both the replayed original and a serve
				// for the re-sent aggregate can arrive; the first consumed
				// the wave, this one is a true duplicate.
				n.cl.logf("core: %v dropping serve for past wave %d (current %d; restart replay)", n.self, m.WaveSeq, n.waveSeq)
				return
			}
			// A serve AHEAD of this node's counter: the link replays the
			// whole unacknowledged tail back-to-back — serve(w), serve(w+1)
			// — while the rolled-back node is still re-executing wave w.
			// This is the only copy of those assignments; park it until
			// the matching re-fire (see heldServes).
			if n.heldServes == nil {
				n.heldServes = make(map[int64]heldServe)
			}
			n.heldServes[m.WaveSeq] = heldServe{from: from, assigns: m.Assigns, epoch: m.UpdateEpoch}
			n.cl.logf("core: %v holding replayed serve for future wave %d (current %d)", n.self, m.WaveSeq, n.waveSeq)
			return
		}
		if n.cl.memberMode() && !n.assignsFit(&n.inFlight[i], m.Assigns) {
			// Shape guard: the serve was computed for a batch that differs
			// from the one in flight — a replay divergence the protocol
			// must not apply (it would double-assign or orphan positions).
			// Keep the wave; the serve matching the re-sent aggregate
			// carries the same WaveSeq and is applied when it arrives.
			n.cl.logf("core: %v dropping serve with mismatched shape for wave %d (restart replay divergence)", n.self, m.WaveSeq)
			return
		}
		n.serve(ctx, i, m.Assigns, m.UpdateEpoch, from)
	case routedMsg:
		n.routeStep(ctx, m)
	case directMsg:
		n.dispatchDHT(ctx, m.Key, m.Inner)
	case getReply:
		if _, ok := n.pendingGets[m.ReqID]; !ok {
			if n.cl.memberMode() {
				// After a fail-stop restart this is either a genuine
				// duplicate (the restored state already resolved the GET)
				// or a link-replayed reply racing ahead of the journal
				// replay that will re-register the op. The two are
				// indistinguishable here, so park it: a re-registered op
				// claims it immediately, an unclaimed entry is inert (see
				// earlyReplies).
				n.cl.logf("core: %v parking reply for unknown GET %d (restart replay)", n.self, m.ReqID)
				if n.earlyReplies == nil {
					n.earlyReplies = make(map[uint64]getReply)
				}
				n.earlyReplies[m.ReqID] = m
				return
			}
			panic(fmt.Sprintf("core: node %v got reply for unknown GET %d", n.self, m.ReqID))
		}
		n.resolveGet(ctx, m)
	case putAck:
		// The strategy accounts the ack (stack: awaitingAcks, parking
		// replay strays); a parked or duplicate ack must not reach
		// the hosting layer's callback.
		if n.disc.putAcked(n, m.ReqID) {
			if n.cl.onPutAck != nil {
				n.cl.onPutAck(m.ReqID)
			}
		}
	default:
		if !n.handleChurn(ctx, from, payload) {
			panic(fmt.Sprintf("core: node %v cannot handle message %T", n.self, payload))
		}
	}
}

// Store exposes the DHT fragment for tests and load statistics.
func (n *Node) Store() *dht.Store { return n.store }

// Ref returns the node's identity.
func (n *Node) Ref() ldb.Ref { return n.self }

// IsAnchor reports whether the node currently holds the anchor role.
func (n *Node) IsAnchor() bool { return n.anchorRole }

// AnchorState returns a copy of the anchor's position window (valid only
// on the anchor).
func (n *Node) AnchorState() batch.AnchorState { return n.ast }

// WaveSeq returns how many waves the node has fired and committed: an
// operation injected now rides the fire after this one, which is what a
// durable host records with the operation so that a restart can put it back
// into that wave. Between fires the counter is exact (an undone fire takes
// no number). Runner goroutine only.
func (n *Node) WaveSeq() int64 { return n.waveSeq }
