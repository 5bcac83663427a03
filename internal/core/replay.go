package core

import (
	"fmt"

	"skueue/internal/batch"
	"skueue/internal/transport"
)

// This file holds the member-mode replay machinery that upgrades
// fail-stop recovery from at-least-once to exactly-once for operations
// mid-flight at the crashed member: a bounded request-ID dedupe window for
// replayed DHT operations, the counter and wave-boundary hooks the hosting
// layer's operation journal drives (re-submission itself is Cluster.Inject
// under the journaled ID), and the serve shape guard.
//
// The threat model: a member restored from a write-ahead snapshot rolls
// back to the cut and re-executes the interval up to the crash from
// replayed inputs. Its re-sent messages reach peers a second time under a
// new boot epoch, so the link layer cannot dedupe them — the receivers
// must. Position-based dedupe (dht.Store.Has) covers a PUT replayed while
// its element is still stored, but not a PUT whose element was already
// consumed, and not a GET replayed after it was served — in stack mode
// the latter would park forever and steal a future element, because
// stack positions are reused (§VI: Last decrements on pops). The request
// ID, tagged with the issuing member (ReqIDMemberShift), identifies an
// operation across both incarnations and closes both holes.

// replayDedupeWindow bounds the per-node dedupe memory. Duplicates only
// arise within one crash-recovery replay interval — the traffic between
// two snapshots plus the reconnect replay — so the window needs to cover
// that interval's operations, not history. One window holds the request
// IDs of the PUTs applied and the GETs served here: an operation is one
// or the other and its ID is unique, so the two kinds never collide, and
// 2^15 IDs per node is 2^14 of each at an even mix — several snapshot
// intervals of saturated traffic. Beyond it, oldest entries are evicted
// first.
const replayDedupeWindow = 1 << 15

// reqRing is a bounded FIFO set of request IDs. The zero value is ready
// to use and allocates nothing until the first add, so simulator nodes
// (which never see replays) pay nothing.
type reqRing struct {
	set  map[uint64]struct{}
	buf  []uint64
	next int
}

func (r *reqRing) add(id uint64) {
	if id == 0 {
		return // member request IDs are never zero (reqBase tag)
	}
	if r.set == nil {
		r.set = make(map[uint64]struct{})
		r.buf = make([]uint64, replayDedupeWindow)
	}
	if _, dup := r.set[id]; dup {
		return
	}
	if old := r.buf[r.next]; old != 0 {
		delete(r.set, old)
	}
	r.buf[r.next] = id
	r.next = (r.next + 1) % replayDedupeWindow
	r.set[id] = struct{}{}
}

func (r *reqRing) has(id uint64) bool {
	_, ok := r.set[id]
	return ok
}

// entries lists the window oldest first, for the member snapshot.
func (r *reqRing) entries() []uint64 {
	if r.set == nil {
		return nil
	}
	out := make([]uint64, 0, len(r.set))
	for i := 0; i < replayDedupeWindow; i++ {
		if id := r.buf[(r.next+i)%replayDedupeWindow]; id != 0 {
			out = append(out, id)
		}
	}
	return out
}

func (r *reqRing) restore(ids []uint64) {
	for _, id := range ids {
		r.add(id)
	}
}

// ReqIDSeq extracts the member-local sequence part of a request ID (the
// low ReqIDMemberShift bits). The hosting layer compares it against the
// snapshotted ReqSeq to decide which journaled operations the snapshot
// already covers.
func ReqIDSeq(reqID uint64) uint64 { return reqID & (1<<ReqIDMemberShift - 1) }

// ReqSeq returns the highest member-local request sequence issued so far
// (NextReqID names its successor). The hosting layer bases its durable
// sequence lease on it (see internal/server: a request ID must never be
// issued unless a ceiling above it is already on stable storage, or a
// crash could re-issue the ID and peer dedupe would swallow the new
// operation as a replay of the dead one). Runner goroutine only.
func (cl *Cluster) ReqSeq() uint64 { return cl.reqSeq }

// AdvanceReqSeq raises the member-local request sequence to at least seq.
// A restore calls it with the journal's high-water mark BEFORE any client
// can submit: journaled operations held back for their wave boundaries
// keep their original request IDs, and a fresh ID colliding with one of
// them would make two distinct operations indistinguishable to every
// dedupe path. Runner goroutine (or before the transport starts) only.
func (cl *Cluster) AdvanceReqSeq(seq uint64) {
	if seq > cl.reqSeq {
		cl.reqSeq = seq
	}
}

// SetOnFire registers a callback invoked on the runner goroutine every
// time a local node fires a wave (Stage 1 transfer W -> B), after the
// wave's composition is fixed: the node, its new WaveSeq and the child waves
// folded into it; nil removes it. Which child waves ride which wave is the
// one choice a work-driven node makes that its inputs do not determine — a
// child that wakes while its parent is busy joins this wave or the next,
// whichever its aggregate reaches — so a host that promises exactly-once
// across restarts logs it durably before the aggregate leaves the member
// (ScriptFire is the other half) and, while replaying, feeds held-back
// operations into the wave they originally rode in.
//
//skueue:runs-on-runner
func (cl *Cluster) SetOnFire(fn func(node transport.NodeID, waveSeq int64, folded []FoldedWaveImage)) {
	cl.onFire = fn
}

// ScriptFire hands a restored node one entry of the crashed incarnation's
// fire log: its fire number waveSeq folded exactly these child waves. Until
// the last entry is used up the node re-fires by the script alone — each
// wave as soon as the child waves it names are here, whatever else is
// waiting, whether or not a tick fell — so the re-fired waves decompose the
// replayed serves exactly as the originals did. Entries at or below the node's
// restored fire counter are inside the image and ignored. Entries come in
// log order. Before the transport starts only.
func (cl *Cluster) ScriptFire(node transport.NodeID, waveSeq int64, folded []FoldedWaveImage) {
	n, ok := cl.nodes[node]
	if !ok || waveSeq <= n.waveSeq {
		return
	}
	if n.script == nil {
		n.script = make(map[int64][]FoldedWaveImage)
	}
	if _, again := n.script[waveSeq]; !again {
		// An earlier replay logged its repeat of this fire as well; the
		// first entry is the original.
		n.script[waveSeq] = folded
	}
}

// ScriptedFires reports how many logged fires this member's nodes have yet
// to repeat. Like HeldReplayServes it must reach zero before the hosting
// layer admits fresh operations: a new operation joining a scripted wave
// would change the batch the replayed serve was cut for. Runner goroutine
// only.
func (cl *Cluster) ScriptedFires() int {
	total := 0
	for _, n := range cl.nodes {
		total += len(n.script)
	}
	return total
}

// HeldReplayServes reports how many replayed serve messages are still
// parked for future waves across this member's nodes (Node.heldServes).
// While any are parked, the restart replay has not converged: the parked
// serves pin the exact batch shape of waves this member has yet to
// re-fire, and a fresh operation joining one of those waves would fail
// the shape guard and wedge the member. The hosting layer holds new
// client traffic until this reaches zero (and the peer replay fences
// have arrived — a serve still in TCP flight is parked only on arrival).
// Runner goroutine only.
func (cl *Cluster) HeldReplayServes() int {
	n := 0
	for _, node := range cl.nodes {
		n += len(node.heldServes)
	}
	return n
}

// assignsFit checks a serve's assignments against the in-flight wave it
// answers: every enqueue/push run's position interval must have
// exactly the run's length (the anchor always allocates enqueue intervals
// exactly; only dequeue intervals may come up short). A mismatch means
// the serve was computed for a different batch than the one in flight —
// possible only when a fail-stop replay diverged — and applying it would
// corrupt position accounting cluster-wide (double-assigned or orphaned
// positions). Member mode drops such serves. The recompute is O(children)
// with two small allocations per serve, on par with the Decompose work a
// serve performs anyway.
func (n *Node) assignsFit(w *wave, assigns []batch.RunAssign) bool {
	parts := make([]batch.Batch, len(w.Subs))
	for i, sb := range w.Subs {
		parts[i] = sb.B
	}
	combined := batch.Combine(parts...)
	if len(assigns) != len(combined.Runs) {
		n.cl.logf("core: %v assigns mismatch: %d assigns vs batch %v (wave %v)", n.self, len(assigns), combined, w)
		return false
	}
	for i, k := range combined.Runs {
		if !batch.IsDeqIndex(i) && assigns[i].Iv.Len() != k {
			n.cl.logf("core: %v assigns mismatch at run %d: interval %v vs run %d (batch %v, wave %v)",
				n.self, i, assigns[i].Iv, k, combined, w)
			return false
		}
	}
	return true
}

// String renders a wave's provenance for replay diagnostics.
func (w *wave) String() string {
	out := fmt.Sprintf("%d->%d:", w.Seq, w.To)
	for _, sb := range w.Subs {
		out += fmt.Sprintf("[from=%d w=%d %v]", sb.From, sb.WaveSeq, sb.B)
	}
	return out
}
