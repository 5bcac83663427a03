package core

import (
	"fmt"
	"slices"
	"sort"

	"skueue/internal/batch"
	"skueue/internal/seqcheck"
	"skueue/internal/stack"
)

// discipline is the mode-strategy seam of the wave protocol: everything
// the queue (§III), stack (§VI) and heap (Skeap-style bounded priority)
// semantics disagree on lives behind this interface, one instance per
// virtual node. The wave core in node.go owns the mode-independent
// machinery — firing, folding, serve routing, replay dedupe windows — and
// calls out here for batch composition, local pre-combining, stage-4
// completion gating, assignment shapes, per-op tickets, snapshot imaging
// of strategy state and the put-acknowledgment policy. No other core file
// names a mode constant, and node.go does not read the configured mode
// either (TestNodeIsModeFree asserts both).
//
// Strategy-private state (the stack's residual combiner word and
// unacknowledged-PUT accounting) lives inside the strategy instance; shared
// per-node buffers (Node.pending) stay on the node.
type discipline interface {
	// mode names the batch algebra this strategy drives.
	mode() batch.Mode

	// Stage 1: bufferOp absorbs one locally generated operation (it may
	// complete immediately against buffered state — stack combining),
	// buffered reports whether any wait for the next wave, takeOwn drains
	// buffered operations into the node's wave
	// contribution, and restoreOwn undoes a takeOwn whose fire could not
	// proceed (rare churn corner).
	bufferOp(n *Node, op Op)
	buffered(n *Node) bool
	takeOwn(n *Node) ownWave
	restoreOwn(n *Node, own ownWave)

	// Stages 2/3: the anchor's position assignment, the recursive
	// decomposition down the tree, and the per-operation expansion of one
	// run. These fix the serve/assignment shape of the mode.
	assign(st *batch.AnchorState, b batch.Batch) []batch.RunAssign
	decompose(assigns []batch.RunAssign, sub batch.Batch) []batch.RunAssign
	expand(runIndex int, ra batch.RunAssign, k int64) []batch.OpAssign

	// Stage 4: gated blocks the next aggregation while completions are
	// outstanding (§VI completion wait); pipelines reports whether a node
	// may fire without waiting for every child and past its waves in
	// flight (Node.pipelines); opTicket extracts the ticket a
	// PUT carries or the bound a GET carries (zero outside stack mode);
	// trackPut/putAcked account the node's own in-flight PUTs (its GETs
	// are Node.pendingGets). putAcked reports whether the ack is accounted
	// for and should reach the hosting layer's callback.
	gated(n *Node) bool
	pipelines() bool
	opTicket(oa batch.OpAssign) int64
	trackPut(n *Node, reqID uint64)
	putAcked(n *Node, reqID uint64) bool

	// ackPuts is the replay/ack policy: whether a storing node must
	// acknowledge every PUT back to its issuer even under the simulator
	// (the stack's §VI wait needs it); in member mode every PUT is
	// acknowledged regardless.
	ackPuts() bool

	// drained reports that no strategy-private client state is buffered
	// (leave handshake, §IV-B).
	drained(n *Node) bool

	// priLevels is the number of valid enqueue priority levels: 1 outside
	// heap mode (level 0 only), the configured level count in heap mode.
	priLevels() int

	// check verifies a completion history against this discipline's
	// correctness condition (Definition 1, or its priority generalization
	// for the heap).
	check(h *seqcheck.History) error

	// capture/restoreImage move strategy-private state into and out of
	// the member snapshot image (fail-stop recovery).
	capture(n *Node, img *NodeImage)
	restoreImage(n *Node, img *NodeImage)
}

// newDiscipline builds the strategy instance for one node of this
// cluster. This is the only place the configured mode is dispatched on.
func (cl *Cluster) newDiscipline() discipline {
	switch cl.cfg.Mode {
	case batch.Stack:
		return &stackDisc{modeDisc: modeDisc{batch.Stack}}
	case batch.Heap:
		levels := cl.cfg.HeapLevels
		if levels < 1 {
			levels = 1
		}
		return &heapDisc{fifoDisc: fifoDisc{modeDisc{batch.Heap}}, levels: levels}
	default:
		return &queueDisc{fifoDisc{modeDisc{batch.Queue}}}
	}
}

// modeDisc supplies the batch-algebra delegation every strategy shares.
type modeDisc struct{ m batch.Mode }

func (d modeDisc) mode() batch.Mode { return d.m }

func (d modeDisc) assign(st *batch.AnchorState, b batch.Batch) []batch.RunAssign {
	return st.Assign(d.m, b)
}

func (d modeDisc) decompose(assigns []batch.RunAssign, sub batch.Batch) []batch.RunAssign {
	return batch.Decompose(d.m, assigns, sub)
}

func (d modeDisc) expand(runIndex int, ra batch.RunAssign, k int64) []batch.OpAssign {
	return batch.Expand(d.m, runIndex, ra, k)
}

// drainPending is the shared uncombined Stage-1 drain: take every
// buffered operation in generation order and run-length encode it.
func drainPending(n *Node) ownWave {
	var w ownWave
	w.ops = n.pending
	n.pending = nil
	for _, op := range w.ops {
		if op.IsDeq {
			w.B.AppendDequeue()
		} else {
			w.B.AppendEnqueue()
		}
	}
	return w
}

// fifoDisc collects the behavior the queue and heap strategies share:
// positions are never reused, so there are no tickets, no stage-4
// completion wait, no ack accounting and no strategy-private buffers.
// It is a partial base, not a discipline itself — queueDisc and heapDisc
// complete it.
type fifoDisc struct{ modeDisc }

func (fifoDisc) bufferOp(n *Node, op Op) { n.pending = append(n.pending, op) }

func (fifoDisc) buffered(n *Node) bool { return len(n.pending) > 0 }

func (fifoDisc) restoreOwn(n *Node, own ownWave) { n.pending = append(own.ops, n.pending...) }

func (fifoDisc) gated(*Node) bool               { return false }
func (fifoDisc) pipelines() bool                { return true }
func (fifoDisc) opTicket(batch.OpAssign) int64  { return 0 }
func (fifoDisc) trackPut(*Node, uint64)         {}
func (fifoDisc) putAcked(*Node, uint64) bool    { return true }
func (fifoDisc) ackPuts() bool                  { return false }
func (fifoDisc) drained(*Node) bool             { return true }
func (fifoDisc) priLevels() int                 { return 1 }
func (fifoDisc) capture(*Node, *NodeImage)      {}
func (fifoDisc) restoreImage(*Node, *NodeImage) {}

// queueDisc is the FIFO queue strategy (§III): buffered operations drain
// wholesale in generation order.
type queueDisc struct{ fifoDisc }

func (queueDisc) takeOwn(n *Node) ownWave { return drainPending(n) }

func (queueDisc) check(h *seqcheck.History) error { return seqcheck.Check(seqcheck.Queue, h) }

// stackDisc is the LIFO stack strategy (§VI): local push/pop combining
// through the residual-word combiner, ticketed stage-4 operations with
// the completion wait, and mandatory put acknowledgments. The combiner
// and the unacknowledged-PUT accounting are private to the strategy; the
// member snapshot carries them through capture/restoreImage, and
// statecomplete holds the strategy to the same field-coverage rule as
// the node itself.
//
//skueue:snapshot-state NodeImage
type stackDisc struct {
	modeDisc
	combiner stack.Combiner[Op]
	// awaitingAcks holds the request IDs of the node's unacknowledged
	// PUTs. Together with Node.pendingGets (its unanswered GETs) it is the
	// node's outstanding DHT work, which the §VI completion wait gates the
	// next aggregation on (see outstanding). A set, not a count, so the
	// accounting is idempotent: around a fail-stop restart an ack can
	// arrive twice (the replayed original plus the dedupe re-ack).
	// earlyAcks (member mode only) parks link-replayed acks that arrive
	// before the journal replay re-registers their PUT.
	awaitingAcks map[uint64]struct{}
	earlyAcks    map[uint64]struct{}
}

func (d *stackDisc) combining(n *Node) bool { return !n.cl.cfg.DisableLocalCombining }

func (d *stackDisc) bufferOp(n *Node, op Op) {
	switch {
	case !d.combining(n):
		n.pending = append(n.pending, op)
	case !op.IsDeq:
		d.combiner.Push(op)
	default:
		if match, ok := d.combiner.Pop(op); ok {
			// Both operations complete on the spot, without value() ranks;
			// the verifier anchors them into ≺ as a combined block.
			n.cl.metrics.CombinedOps += 2
			n.cl.recordCompletion(seqcheck.Completion{
				Client: n.clientID, LocalSeq: match.LocalSeq,
				Kind: seqcheck.Push, Elem: match.Elem,
				Value: seqcheck.NoValue, Born: match.Born, Done: op.Born, ReqID: match.ReqID,
				Blob: match.Blob,
			})
			n.cl.recordCompletion(seqcheck.Completion{
				Client: n.clientID, LocalSeq: op.LocalSeq,
				Kind: seqcheck.Pop, Elem: match.Elem,
				Value: seqcheck.NoValue, Born: op.Born, Done: op.Born, ReqID: op.ReqID,
				Blob: match.Blob,
			})
		}
	}
}

func (d *stackDisc) buffered(n *Node) bool {
	return len(n.pending) > 0 || !d.combiner.Empty()
}

func (d *stackDisc) takeOwn(n *Node) ownWave {
	if !d.combining(n) {
		return drainPending(n)
	}
	pops, pushes := d.combiner.TakeResidual()
	return ownWave{
		B:   batch.MakeStack(int64(len(pops)), int64(len(pushes))),
		ops: append(pops, pushes...),
	}
}

// restoreOwn puts an unsent wave back in front of whatever was buffered
// since it was taken: the returned word comes first in program order, so the
// newer operations are buffered again behind it, and a newer pop meets a
// returned push exactly as it would have had the wave never been taken.
func (d *stackDisc) restoreOwn(n *Node, own ownWave) {
	if !d.combining(n) {
		n.pending = append(own.ops, n.pending...)
		return
	}
	newerPops, newerPushes := d.combiner.TakeResidual()
	pops := 0
	for pops < len(own.ops) && own.ops[pops].IsDeq {
		pops++
	}
	d.combiner.Restore(own.ops[:pops], own.ops[pops:])
	for _, op := range newerPops {
		d.bufferOp(n, op)
	}
	for _, op := range newerPushes {
		d.bufferOp(n, op)
	}
}

// outstanding counts the node's own unconfirmed DHT operations: GETs
// awaiting their reply plus ticketed PUTs awaiting their ack.
func (d *stackDisc) outstanding(n *Node) int {
	return len(n.pendingGets) + len(d.awaitingAcks)
}

func (d *stackDisc) gated(n *Node) bool {
	return !n.cl.cfg.DisableStage4Wait && d.outstanding(n) > 0
}

// pipelines is false: §VI's completion wait is a barrier across the whole
// tree only because a node's next wave waits for every child, which
// Algorithm 1 does, and only with nothing in flight.
func (*stackDisc) pipelines() bool { return false }

func (d *stackDisc) opTicket(oa batch.OpAssign) int64 { return oa.Ticket }

func (d *stackDisc) trackPut(n *Node, reqID uint64) {
	if d.awaitingAcks == nil {
		d.awaitingAcks = make(map[uint64]struct{})
	}
	d.awaitingAcks[reqID] = struct{}{}
	if _, ok := d.earlyAcks[reqID]; ok {
		// The ack already arrived via link replay while this op was
		// still being re-injected from the journal (see earlyAcks).
		delete(d.earlyAcks, reqID)
		delete(d.awaitingAcks, reqID)
		n.cl.logf("core: %v claiming parked ack for PUT %d (restart replay)", n.self, reqID)
		if n.cl.onPutAck != nil {
			n.cl.onPutAck(reqID)
		}
	}
}

func (d *stackDisc) putAcked(n *Node, reqID uint64) bool {
	if _, awaited := d.awaitingAcks[reqID]; awaited {
		delete(d.awaitingAcks, reqID)
		return true
	}
	if !n.cl.memberMode() {
		panic(fmt.Sprintf("core: node %v got ack for unawaited PUT %d", n.self, reqID))
	}
	// Either a duplicate ack around a fail-stop restart (replayed
	// original plus dedupe re-ack, already accounted) or a link-replayed
	// ack racing ahead of the journal replay that will re-register the
	// PUT. Park it so the re-registered op can claim it (see earlyAcks);
	// an unclaimed entry is inert.
	n.cl.logf("core: %v parking ack for unawaited PUT %d (restart replay)", n.self, reqID)
	if d.earlyAcks == nil {
		d.earlyAcks = make(map[uint64]struct{})
	}
	d.earlyAcks[reqID] = struct{}{}
	return false
}

func (d *stackDisc) ackPuts() bool { return true }

func (d *stackDisc) drained(n *Node) bool {
	return d.combiner.Empty() && d.outstanding(n) == 0
}

func (*stackDisc) priLevels() int { return 1 }

func (*stackDisc) check(h *seqcheck.History) error { return seqcheck.Check(seqcheck.Stack, h) }

//skueue:snapshot-capture stackDisc
func (d *stackDisc) capture(n *Node, img *NodeImage) {
	img.Combiner.Pops, img.Combiner.Pushes = d.combiner.Snapshot()
	for reqID := range d.awaitingAcks {
		img.AwaitingAcks = append(img.AwaitingAcks, reqID)
	}
	sort.Slice(img.AwaitingAcks, func(i, j int) bool { return img.AwaitingAcks[i] < img.AwaitingAcks[j] })
	for reqID := range d.earlyAcks {
		img.EarlyAcks = append(img.EarlyAcks, reqID)
	}
	sort.Slice(img.EarlyAcks, func(i, j int) bool { return img.EarlyAcks[i] < img.EarlyAcks[j] })
}

//skueue:snapshot-restore stackDisc
func (d *stackDisc) restoreImage(n *Node, img *NodeImage) {
	d.combiner.Restore(img.Combiner.Pops, img.Combiner.Pushes)
	if len(img.AwaitingAcks) > 0 {
		d.awaitingAcks = make(map[uint64]struct{}, len(img.AwaitingAcks))
		for _, reqID := range img.AwaitingAcks {
			d.awaitingAcks[reqID] = struct{}{}
		}
	}
	if len(img.EarlyAcks) > 0 {
		d.earlyAcks = make(map[uint64]struct{}, len(img.EarlyAcks))
		for _, reqID := range img.EarlyAcks {
			d.earlyAcks[reqID] = struct{}{}
		}
	}
}

// heapDisc is the bounded-constant-priority heap strategy: levels FIFO
// queues, DequeueMin consuming the front of the lowest non-empty level.
// Positions are level-tagged and never reused, so stage 4 behaves like
// the queue's (fifoDisc). The one heap-specific piece is the Stage-1
// drain: only a maximal prefix of buffered operations whose canonical run
// indices are non-decreasing in generation order may ride one wave —
// within a wave the value() ranks follow run-index order, so a
// decreasing pair would invert the issuer's program order (Definition 1
// property 4). The remainder waits for the next wave.
type heapDisc struct {
	fifoDisc
	levels int
}

func (d *heapDisc) priLevels() int { return d.levels }

func (d *heapDisc) check(h *seqcheck.History) error { return seqcheck.CheckPriority(h, d.levels) }

// heapRunIndex maps one buffered operation to its canonical run index.
func heapRunIndex(op Op) int {
	if op.IsDeq {
		return batch.HeapDeqRunIndex
	}
	return batch.HeapEnqRunIndex(op.Pri)
}

func (d *heapDisc) takeOwn(n *Node) ownWave {
	var w ownWave
	cut, last := 0, -1
	for cut < len(n.pending) {
		ri := heapRunIndex(n.pending[cut])
		if ri < last {
			break
		}
		last = ri
		cut++
	}
	if cut == 0 {
		return w
	}
	w.ops = n.pending[:cut:cut]
	if cut == len(n.pending) {
		n.pending = nil
	} else {
		n.pending = slices.Clone(n.pending[cut:])
	}
	var deqs int64
	enqs := make([]int64, d.levels)
	for _, op := range w.ops {
		if op.IsDeq {
			deqs++
		} else {
			enqs[op.Pri]++
		}
	}
	w.B = batch.MakeHeap(deqs, enqs)
	return w
}
