package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skueue/internal/core"
	"skueue/internal/transport"
	"skueue/internal/wire"
)

// The operation journal gives client operations durable request
// identities, closing the gap the write-ahead snapshot leaves open: a
// snapshot is a consistent cut, and everything after the cut is
// regenerated on restart from replayed peer frames — except the client
// operations injected at this member, whose submitting sessions die with
// the process. The journal records exactly that missing input stream:
//
//   - an op record (request ID, node, wave, kind, value) is staged just
//     before an operation is injected — ahead of every outcome record the
//     injection can cause, and durable before any CliDone for it can be
//     released to the client. The wave is the injection node's fire count
//     at submit (core.Node.WaveSeq): the operation rode the fire after it,
//     and that is all a restart needs to put it back there — a member
//     journals nothing per wave, idle or busy;
//   - a done record (request ID, outcome) is appended when an operation
//     completes — durable before its CliDone frame is released, so a
//     confirmed outcome always survives a crash.
//
// # Group commit
//
// Appends are asynchronous: appendOp and appendDone only STAGE the
// encoded record in an in-memory buffer — never touching the disk — and
// park a release action on a pending-release queue. A dedicated journal
// writer goroutine drains the buffer, makes each drained batch durable
// with ONE write + fsync, and only then runs the batch's parked releases
// (the actions that hand CliDone frames to their sessions). The
// journaled-before-release invariant is therefore preserved exactly —
// nothing client-visible escapes before the fsync covering it returns —
// but N concurrent operations share one disk sync instead of paying one
// (or two) each, and the submission path, which runs on the transport's
// runner goroutine, never blocks on the disk at all.
//
// Batch formation: with batchDelay zero (the default) the writer flushes
// whenever it is idle and records are staged — batches then form
// naturally while the previous fsync is in flight, adding no latency when
// the journal is keeping up. A positive batchDelay deliberately holds a
// batch open that long to accumulate more records (throughput for
// latency); the batchOps cap flushes early once that many operations are
// staged.
//
// Failure is sticky: once a batch write or fsync fails, the file may end
// in a torn record, and appending past the tear would hide every later
// record from the restart loader's valid-prefix scan — silently
// discarding confirmed operations. Instead the journal fails all parked
// and future releases with the error (the server answers those clients
// "indeterminate") and never writes again.
//
// On restart the records with a member-local sequence beyond the
// snapshot's ReqSeq are re-submitted under their ORIGINAL request IDs
// (core.Cluster.Inject), each when its node has re-fired the wave its
// record names, so it re-enters the exact wave it originally rode in
// (buildReplayPlan): the re-fired waves then reproduce the crashed
// incarnation's batches bit for bit, the replayed serves line up, and the
// receiver-side request-ID dedupe (core, replay.go) collapses every
// re-sent effect onto the original — neither dropping nor double-applying
// an operation.
//
// Records are framed individually ([4-byte length][self-contained gob
// body]) so a crash mid-append leaves a recognizable torn tail, and the
// same property covers a torn BATCH: a batch is a concatenation of
// frames written front to back, so a crash mid-batch leaves a valid
// record prefix followed by garbage. The loader keeps the prefix and
// discards the rest — and because a batch's releases run only after its
// fsync returned, every record the tear swallows belongs to an operation
// whose client never received an answer.

// # The sequence lease
//
// Asynchronous appends open one more hole: an operation's request ID is
// reserved at submission, and its effects can ride a wave to peer
// members while the op record is still staged. If the member then
// crashes before the batch syncs, the record is lost, the restarted
// member's request counter — advanced only past DURABLE records —
// re-issues the same ID to a fresh client operation,
// and the peers' request-ID dedupe rings (which deliberately match
// across boot epochs, replay depends on it) swallow the new operation as
// a replay of the dead one. The journal therefore maintains a durable
// sequence lease: a ceiling, persisted ahead of use in spans of
// leaseSpan sequences, below which IDs may be issued freely. The server
// refuses an operation whose sequence is not covered by the DURABLE
// ceiling (practically unreachable: extensions are staged half a span
// early), and a restart advances the counter past the ceiling — re-issue
// is impossible by construction, with one tiny journal record per
// leaseSpan operations instead of any per-op durability. Compaction
// cannot lose the ceiling either: every snapshot captures the pending
// ceiling (diskSnapshot.SeqCeiling), and any lease record the compaction
// drops is at or below the ceiling of the snapshot that justified it.

// Journal record kinds. Kind 3 is retired: an older format filed a
// per-node fire marker ahead of an op record instead of the wave inside
// it, and a journal holding one no longer opens (buildReplayPlan). Kind 6
// is the fire log
// of work-driven waves: one record per committed fire of a local node,
// naming the child waves folded into it (none, for a wave of the node's own
// operations alone). A node no longer folds every child into every
// wave, and which waves a woken child's batches joined is decided by
// arrival order — the one thing a restart cannot re-derive from the
// snapshot, the op records and the peers' link replay. The record is staged
// at the fire, so the WAL-before-send gate holds the fire's aggregate until
// it is durable: a wave a peer has seen is a wave the restart can repeat.
// It is written per wave that carries work, not per tick.
const (
	recOp      = 1
	recDone    = 2
	recLease   = 4
	recSession = 5
	recFire    = 6
)

// journalRecord is one journal entry; Kind selects which fields matter.
type journalRecord struct {
	Kind    uint8
	ReqID   uint64                 // op, done
	Node    transport.NodeID       // op: the node it was injected at. fire: the node that fired
	IsDeq   bool                   // op
	Pri     int32                  // op (enqueue priority level, heap mode)
	Value   []byte                 // op (enqueue payload)
	Done    wire.CliDone           // done
	Wave    int64                  // op: fires Node had committed at submit; the op rode the next one. fire: the fire's number
	Folded  []core.FoldedWaveImage // fire: the child waves folded into it
	Ceiling uint64                 // lease: request sequences below it may be issued
	// Sess names the durable client session a record belongs to: the
	// session's own record (recSession, staged ahead of its first op) and
	// every op submitted through it. Empty for ephemeral operations; done
	// records need no Sess — restore maps their ReqID back through the op
	// records and the snapshot's session images.
	Sess string // session, op
	// CliSeq is the operation's per-session sequence (op records of a
	// session): the key the member dedupes re-presented operations by and
	// retains undelivered outcomes under.
	CliSeq uint64 // op
}

// op is the core operation an op record re-injects on restart: the same
// identity and content the crashed incarnation's submit injected.
func (rec *journalRecord) op() core.Op {
	return core.Op{ReqID: rec.ReqID, IsDeq: rec.IsDeq, Pri: rec.Pri, Blob: rec.Value}
}

// leaseSpan is how many request sequences one lease record covers; an
// extension is staged once issuance crosses the half-way mark, so the
// durable ceiling is only ever reached if the journal cannot sync half a
// span's worth of operations in time (or has failed).
const leaseSpan = 1 << 16

const journalFile = "ops.journal"

// batchOps is the group-commit op cap: with a positive batch delay the
// writer flushes early once this many operations are staged.
const batchOps = 64

// journalRelease is a parked release action: called with nil once the
// fsync covering its record returned, or with the journal failure if the
// record never became durable. Runs on the journal writer goroutine, or
// inline on the staging goroutine when there is nothing to wait for (the
// volatile durability, an already failed journal).
type journalRelease func(err error)

// run fires the release; a nil release (a record nobody waits on) is a
// no-op.
func (r journalRelease) run(err error) {
	if r != nil {
		r(err)
	}
}

// opJournal is the append side: staging on the submission path, one
// writer goroutine doing the batched write+fsync, compaction on the
// snapshot goroutine.
type opJournal struct {
	dir   string
	delay time.Duration // hold a batch open this long to accumulate (0: flush when idle)

	// mu guards the staging side: the batch buffer, the parked releases,
	// the lifecycle flags and the logical length. Staging never performs
	// I/O, so appendOp/appendDone return immediately regardless of what the
	// disk is doing.
	//
	//skueue:lock 44
	mu sync.Mutex
	//skueue:guarded-by mu
	buf []byte
	//skueue:guarded-by mu
	releases []journalRelease
	//skueue:guarded-by mu
	stagedOps int
	//skueue:guarded-by mu
	firstStage time.Time // when the open batch received its first record
	//skueue:guarded-by mu
	urgent bool // a barrier or shutdown wants the batch flushed now
	//skueue:guarded-by mu
	closed bool
	//skueue:guarded-by mu
	failed error // sticky: set on the first write/fsync error
	// logical is durable plus the staged bytes: the file length as if
	// everything staged were already written. offset() hands it out as
	// the compaction boundary of a snapshot capture — staging happens on
	// the runner goroutine, so reading it inside the capture's DoSync
	// still yields a precise cut (see offset).
	//
	//skueue:guarded-by mu
	logical int64
	// The sequence lease (see the package comment): request sequences
	// below leaseDurable are safe to issue — a ceiling at or above them
	// is on stable storage — and leasePending is the highest ceiling
	// staged so far (what the next snapshot captures).
	//
	//skueue:guarded-by mu
	leaseDurable uint64
	//skueue:guarded-by mu
	leasePending uint64

	// wmu guards the file side: the handle, the durable length, each
	// batch write+fsync, and the compaction handle swap. Never acquired
	// while holding mu (compaction takes mu INSIDE wmu for the length
	// adjustment, so the reverse order would deadlock) — hence the lower
	// rank; "io" because holding it across the batch write+fsync is the
	// whole point.
	//
	//skueue:lock 40 io
	wmu sync.Mutex
	//skueue:guarded-by wmu
	f *os.File
	//skueue:guarded-by wmu
	durable int64

	wake chan struct{}
	wg   sync.WaitGroup

	// testCompactPause, when set, runs between truncatePrefix's bulk
	// suffix copy and its handle-swap critical section; tests park it to
	// prove appends proceed while a compaction is in flight.
	testCompactPause func()
}

// openJournal opens (or, with fresh set, truncates) the journal for
// appending and starts the group-commit writer.
func openJournal(dir string, fresh bool, delay time.Duration) (*opJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), flags, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &opJournal{
		dir:     dir,
		delay:   delay,
		f:       f,
		durable: st.Size(),
		logical: st.Size(),
		wake:    make(chan struct{}, 1),
	}
	j.wg.Add(1)
	go j.writerLoop()
	return j, nil
}

// close flushes whatever is still staged, stops the writer and closes the
// file. Parked releases run (or fail) before close returns.
func (j *opJournal) close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.urgent = true
	j.mu.Unlock()
	j.wakeWriter()
	j.wg.Wait()
	j.wmu.Lock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.wmu.Unlock()
}

// discard simulates a fail-stop crash for Server.Kill: staged records are
// dropped instead of flushed and every parked release fails, so whatever
// group commit had not yet synced is lost exactly as a real process death
// would lose it. The restart tests rely on this to exercise the
// torn-batch window with batching enabled.
func (j *opJournal) discard() {
	j.mu.Lock()
	if j.failed == nil {
		j.failed = errors.New("server: journal discarded (simulated crash)")
	}
	j.logical -= int64(len(j.buf))
	j.buf = nil
	j.mu.Unlock()
	j.close()
}

// wakeWriter nudges the writer without ever blocking the caller.
func (j *opJournal) wakeWriter() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// encodeRecord frames one record as [length][gob body]. Each record is a
// self-contained gob stream: appending across process restarts must not
// depend on a shared encoder's type-descriptor state.
func encodeRecord(rec *journalRecord) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return nil, err
	}
	buf := make([]byte, 4+body.Len())
	binary.BigEndian.PutUint32(buf, uint32(body.Len()))
	copy(buf[4:], body.Bytes())
	return buf, nil
}

// appendOp stages one accepted client operation — op carries its identity,
// content and wave; for an operation submitted through a durable session
// also the session and its per-session sequence, both zero otherwise — and
// parks release on the batch. It must be called before the operation is
// injected, in the same runner task: no CliDone for the operation — or for
// a partner its injection completes — can then be staged ahead of it, and
// no fire can separate the wave read from the injection.
func (j *opJournal) appendOp(op journalRecord, release journalRelease) {
	j.mu.Lock()
	if err := j.unusableLocked(); err != nil {
		j.mu.Unlock()
		release.run(err)
		return
	}
	op.Kind = recOp
	b, err := encodeRecord(&op)
	if err != nil {
		j.mu.Unlock()
		release.run(err)
		return
	}
	j.stageLocked(b, release)
}

// appendSession stages a durable session's record. The server stages it
// on the runner right before the session's first appendOp, so the record
// precedes every operation of the session in the file — a restart that
// finds any of the session's ops finds the session itself first.
func (j *opJournal) appendSession(sess string) {
	j.stageUnwatched(&journalRecord{Kind: recSession, Sess: sess})
}

// stageUnwatched stages a record nobody waits on by name; on an unusable
// journal it is dropped, as every append then fails its operation anyway.
func (j *opJournal) stageUnwatched(rec *journalRecord) {
	j.mu.Lock()
	if j.unusableLocked() != nil {
		j.mu.Unlock()
		return
	}
	b, err := encodeRecord(rec)
	if err != nil {
		j.mu.Unlock()
		return
	}
	j.stageLocked(b, nil)
}

// appendFire stages one committed fire of a local node. Nothing waits on
// it by name: what must not overtake it is the fire's own aggregate, and
// that leaves through the send gate, which waits for everything staged.
func (j *opJournal) appendFire(node transport.NodeID, wave int64, folded []core.FoldedWaveImage) {
	j.stageUnwatched(&journalRecord{Kind: recFire, Node: node, Wave: wave, Folded: folded})
}

// appendDone stages one client-visible outcome and parks release on the
// batch; release must be the only path that hands the CliDone frame to
// the session, so nothing escapes before the covering fsync.
func (j *opJournal) appendDone(reqID uint64, done wire.CliDone, release journalRelease) {
	j.mu.Lock()
	if err := j.unusableLocked(); err != nil {
		j.mu.Unlock()
		release.run(err)
		return
	}
	b, err := encodeRecord(&journalRecord{Kind: recDone, ReqID: reqID, Done: done})
	if err != nil {
		j.mu.Unlock()
		release.run(err)
		return
	}
	j.stageLocked(b, release)
}

// unusableLocked returns the error appends must fail with, if any.
//
//skueue:locked mu
func (j *opJournal) unusableLocked() error {
	if j.failed != nil {
		return j.failed
	}
	if j.closed {
		return errors.New("server: journal closed")
	}
	return nil
}

// stageLocked adds frames and a release to the open batch (mu held by the
// caller; unlocks it) and wakes the writer.
//
//skueue:locked mu
func (j *opJournal) stageLocked(frames []byte, release journalRelease) {
	if len(j.buf) == 0 && len(j.releases) == 0 {
		j.firstStage = time.Now()
	}
	j.buf = append(j.buf, frames...)
	j.logical += int64(len(frames))
	j.releases = append(j.releases, release)
	j.stagedOps++
	j.mu.Unlock()
	j.wakeWriter()
}

// coverSeq reports whether request sequence seq may be issued — a lease
// ceiling above it is durable — and stages a lease extension once
// issuance crosses the half-span mark, so the answer goes false only if
// the journal failed or could not sync an extension within half a span
// of operations. Runner goroutine (with the rest of the staging side).
func (j *opJournal) coverSeq(seq uint64) bool {
	j.mu.Lock()
	durable, pending := j.leaseDurable, j.leasePending
	usable := j.failed == nil && !j.closed
	j.mu.Unlock()
	if usable && seq+leaseSpan/2 >= pending {
		j.stageLease(seq + leaseSpan)
	}
	return seq < durable
}

// stageLease stages a lease record raising the ceiling; its release
// publishes the new durable ceiling once the covering fsync returns.
// Ceilings never regress: a stale call is a no-op.
func (j *opJournal) stageLease(ceiling uint64) {
	j.mu.Lock()
	if j.failed != nil || j.closed || ceiling <= j.leasePending {
		j.mu.Unlock()
		return
	}
	b, err := encodeRecord(&journalRecord{Kind: recLease, Ceiling: ceiling})
	if err != nil {
		j.mu.Unlock()
		return
	}
	j.leasePending = ceiling
	j.stageLocked(b, func(err error) {
		if err != nil {
			return
		}
		j.mu.Lock()
		if ceiling > j.leaseDurable {
			j.leaseDurable = ceiling
		}
		j.mu.Unlock()
	})
}

// initLease establishes a durable ceiling a full span above base before
// any client can submit: stage, then barrier. Boot-time only — the one
// place the lease is allowed to wait for the disk.
func (j *opJournal) initLease(base uint64) error {
	j.stageLease(base + leaseSpan)
	return j.barrier()
}

// leaseCeiling returns the highest ceiling staged so far; snapshots
// capture it (diskSnapshot.SeqCeiling) so compaction dropping old lease
// records can never lose the lease — a restored member advances its
// counter past the snapshot's ceiling too.
func (j *opJournal) leaseCeiling() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.leasePending
}

// barrier blocks until every record staged before the call is durable,
// returning nil, or the journal has failed, returning the failure.
// Snapshot compaction uses it to turn a logical cut boundary into a
// durable one.
func (j *opJournal) barrier() error {
	j.mu.Lock()
	if err := j.unusableLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	// A zero-byte sentinel: releases run in staging order after their
	// batch's fsync, so when this one fires every earlier record is
	// durable — including a batch the writer had already stolen when we
	// arrived, because the sentinel lands in the NEXT batch.
	errc := make(chan error, 1)
	j.releases = append(j.releases, func(err error) { errc <- err })
	j.urgent = true
	j.mu.Unlock()
	j.wakeWriter()
	return <-errc
}

// sendableNow reports whether every record staged so far is already
// durable — the fast path of the WAL-before-send gate (Server.gateSend):
// a peer frame enqueued while this holds cannot be carrying any
// staged-but-unsynced operation, so it may leave the member immediately.
// The releases check matters as much as the buffer check: a batch the
// writer has stolen but not finished syncing keeps its releases parked,
// and a frame overtaking those would reorder the outbound stream.
func (j *opJournal) sendableNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed == nil && len(j.buf) == 0 && len(j.releases) == 0
}

// notifyDurable parks fn on the release queue: it runs (on the journal
// writer goroutine, like every release) once everything staged before
// the call is durable, with nil, or with the journal failure. Unlike the
// appends it stages no bytes, so a pile of parked notifications still
// costs one fsync. The WAL-before-send gate uses it to hold outbound
// peer frames until the records they may carry are on stable storage.
func (j *opJournal) notifyDurable(fn journalRelease) {
	j.mu.Lock()
	if err := j.unusableLocked(); err != nil {
		j.mu.Unlock()
		fn(err)
		return
	}
	if len(j.buf) == 0 && len(j.releases) == 0 {
		j.firstStage = time.Now()
	}
	j.releases = append(j.releases, fn)
	j.mu.Unlock()
	j.wakeWriter()
}

// writerLoop is the group-commit engine: it drains the staged batch,
// writes and fsyncs it as one unit, then runs the parked releases. While
// an fsync is in flight new records pile up into the next batch — that is
// where the coalescing comes from.
func (j *opJournal) writerLoop() {
	defer j.wg.Done()
	for {
		j.mu.Lock()
		staged := len(j.buf)
		pending := len(j.releases) > 0 || staged > 0
		ops, urgent, closed, failed := j.stagedOps, j.urgent, j.closed, j.failed != nil
		first := j.firstStage
		j.mu.Unlock()
		if !pending {
			if closed {
				return
			}
			<-j.wake
			continue
		}
		// Accumulation window: hold the batch open up to delay, unless
		// the op cap is reached, a barrier wants it out, or we are
		// draining for shutdown/failure. A batch holding only parked
		// notifications (no bytes) has nothing to coalesce and flushes
		// immediately — waiting would only stall the send gate.
		if j.delay > 0 && staged > 0 && ops < batchOps && !urgent && !closed && !failed {
			if wait := time.Until(first.Add(j.delay)); wait > 0 {
				select {
				case <-j.wake:
				case <-time.After(wait):
				}
				continue
			}
		}
		j.flush()
	}
}

// flush steals everything staged, makes it durable with one write+fsync,
// and then runs the parked releases — with nil on success, with the
// journal failure otherwise (sticky: see the package comment on why the
// journal never writes past a failed batch).
func (j *opJournal) flush() {
	j.mu.Lock()
	buf, rels := j.buf, j.releases
	j.buf, j.releases = nil, nil
	j.stagedOps = 0
	j.urgent = false
	err := j.failed
	j.mu.Unlock()
	if len(buf) == 0 && len(rels) == 0 {
		return
	}
	if err == nil && len(buf) > 0 {
		if werr := j.writeBatch(buf); werr != nil {
			j.mu.Lock()
			if j.failed == nil {
				j.failed = werr
			}
			err = j.failed
			j.mu.Unlock()
		}
	}
	for _, rel := range rels {
		rel.run(err)
	}
}

// writeBatch appends one batch to the file and fsyncs it.
func (j *opJournal) writeBatch(buf []byte) error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if j.f == nil {
		return errors.New("server: journal closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.durable += int64(len(buf))
	return j.f.Sync()
}

// offset returns the compaction boundary for a snapshot capture: the
// LOGICAL journal length at this instant — counting staged records the
// writer has not synced yet. All staging runs on the transport's runner
// goroutine, so reading it inside the capture's DoSync makes it a precise
// cut: every record before it belongs to an operation the snapshot's core
// image covers (op and done records carry sequences at or below the
// captured ReqSeq; session and lease records are captured as
// diskSnapshot.Sessions and SeqCeiling in the same task). Staged records
// before the cut need no durability of their own — once the snapshot is
// durable they are covered by it, and truncatePrefix runs a barrier before
// it copies, so the boundary is durable by the time the file is rewritten.
func (j *opJournal) offset() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.logical
}

// truncatePrefix drops every record before the given capture boundary by
// copying the suffix — a raw byte copy, no decoding — into a fresh file.
// The cost is proportional to the replay window (records since the
// snapshot's cut), not to history, and the copy runs OUTSIDE both locks:
// staging never blocks at all, and the writer's batch flushes block only
// for the short catch-up-and-swap critical section at the end, never for
// the bulk copy. Crash-safe: temp file, fsync, rename, directory fsync —
// a crash mid-truncation leaves the previous journal intact, which the
// loader's covered-record filters tolerate.
func (j *opJournal) truncatePrefix(offset int64) error {
	if offset <= 0 {
		return nil
	}
	// The boundary is a logical length and may count staged records: make
	// it durable before copying from the file.
	if err := j.barrier(); err != nil {
		return err
	}
	j.wmu.Lock()
	if j.f == nil {
		j.wmu.Unlock()
		return errors.New("server: journal closed")
	}
	copied := j.durable
	j.wmu.Unlock()
	if offset > copied {
		offset = copied // unreachable post-barrier; clamp defensively
	}
	path := filepath.Join(j.dir, journalFile)
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(j.dir, journalFile+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	// Bulk copy, lock-free: the file is append-only, so the bytes in
	// [offset, copied) are stable even while the writer appends past
	// them.
	if _, err := io.CopyN(tmp, src, copied-offset); err != nil && !errors.Is(err, io.EOF) {
		return fail(err)
	}
	if j.testCompactPause != nil {
		j.testCompactPause()
	}
	// Short critical section: catch up whatever was appended during the
	// bulk copy (bounded by the copy's duration, not by history), then
	// swap the handle.
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if j.f == nil {
		return fail(errors.New("server: journal closed"))
	}
	if j.durable > copied {
		if _, err := io.CopyN(tmp, src, j.durable-copied); err != nil && !errors.Is(err, io.EOF) {
			return fail(err)
		}
	}
	newSize := j.durable - offset
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Past the rename the old handle points at an unlinked inode: the
	// swap (or, failing that, closing the journal so appends error
	// loudly) must happen regardless of any later error — silently
	// appending to the orphaned file would defeat the journaled-before-
	// release contract without anyone noticing.
	syncErr := syncDir(j.dir)
	f, openErr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	j.f.Close()
	j.f = f // nil on open failure: subsequent flushes fail explicitly
	j.durable = newSize
	j.mu.Lock()
	j.logical -= offset
	j.mu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return openErr
}

// readJournal decodes the valid prefix of a journal file. A torn or
// corrupt tail — a crash mid-append, or mid-BATCH: group commit writes
// several frames back to back, and a tear anywhere leaves a valid frame
// prefix — ends the prefix silently; a missing file is an empty journal.
// Every record a tear swallows belonged to a batch whose fsync never
// returned, so none of its releases ran and no client saw an answer.
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []journalRecord
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return out, nil // EOF or torn length prefix
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > wire.MaxFrame {
			return out, nil // corrupt tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			return out, nil // torn body
		}
		var rec journalRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return out, nil // corrupt tail
		}
		out = append(out, rec)
	}
}

// replayPlan partitions the journal records a snapshot does not cover
// into the re-submission schedule of a restart: operations grouped by
// the wave their record names, per node, in journal (= original
// injection) order, plus the journaled outcomes for divergence auditing.
type replayPlan struct {
	// immediate ops are re-submitted before the transport starts: they
	// were buffered at the crash, not yet part of any post-snapshot wave.
	immediate []journalRecord
	// held groups are re-submitted when their node re-fires the wave
	// they followed, so they re-enter the exact wave they originally
	// rode in. Groups are consumed strictly in order per node.
	held map[transport.NodeID][]heldGroup
	// outcomes maps request IDs to the CliDone the crashed incarnation
	// released, for divergence auditing on re-completion.
	outcomes map[uint64]wire.CliDone
	// fires are the logged fires past the snapshot, in journal order: the
	// script the restored nodes repeat (core.Cluster.ScriptFire).
	fires []journalRecord
}

// heldGroup is a run of operations awaiting the fire of wave afterWave.
type heldGroup struct {
	afterWave int64
	ops       []journalRecord
}

// buildReplayPlan files the records against the snapshot's coverage: ops
// with sequence <= coveredSeq live inside the snapshot's node images and are
// skipped; an op whose node had, by the snapshot, already fired the wave the
// record names was buffered at the cut and is immediate; the rest are held
// for that fire. A record of a kind this version does not know — the
// retired fire marker, kind 3, among them — fails the restart: filed by
// guesswork, its operations could ride other waves than the serves on their
// way were cut for.
func buildReplayPlan(recs []journalRecord, coveredSeq uint64, waves map[transport.NodeID]int64) (*replayPlan, error) {
	plan := &replayPlan{
		held:     make(map[transport.NodeID][]heldGroup),
		outcomes: make(map[uint64]wire.CliDone),
	}
	for i := range recs {
		rec := recs[i]
		switch rec.Kind {
		case recLease, recSession:
			// Read where the lease and the sessions are restored.
		case recFire:
			if rec.Wave > waves[rec.Node] {
				plan.fires = append(plan.fires, rec)
			}
		case recOp:
			if core.ReqIDSeq(rec.ReqID) <= coveredSeq {
				continue
			}
			after := rec.Wave
			if after <= waves[rec.Node] {
				plan.immediate = append(plan.immediate, rec)
				continue
			}
			groups := plan.held[rec.Node]
			if len(groups) > 0 && groups[len(groups)-1].afterWave == after {
				groups[len(groups)-1].ops = append(groups[len(groups)-1].ops, rec)
			} else {
				groups = append(groups, heldGroup{afterWave: after, ops: []journalRecord{rec}})
			}
			plan.held[rec.Node] = groups
		case recDone:
			if core.ReqIDSeq(rec.ReqID) <= coveredSeq {
				continue
			}
			plan.outcomes[rec.ReqID] = rec.Done
		default:
			return nil, fmt.Errorf("server: journal record %d is of kind %d, which this version does not read", i, rec.Kind)
		}
	}
	return plan, nil
}

// pending reports how many operations the plan still holds back.
func (p *replayPlan) pending() int {
	n := 0
	for _, groups := range p.held {
		for _, g := range groups {
			n += len(g.ops)
		}
	}
	return n
}

// take pops the held groups of node that a fire of the given wave
// releases: the head group (and any earlier-numbered successors) whose
// boundary the fired wave has reached. Strictly in order — a later group
// never jumps an earlier one, preserving original injection order.
func (p *replayPlan) take(node transport.NodeID, wave int64) []journalRecord {
	groups := p.held[node]
	var out []journalRecord
	for len(groups) > 0 && groups[0].afterWave <= wave {
		out = append(out, groups[0].ops...)
		groups = groups[1:]
	}
	if len(out) > 0 {
		if len(groups) == 0 {
			delete(p.held, node)
		} else {
			p.held[node] = groups
		}
	}
	return out
}

// journalHoldsOps reports whether recs contain any operation or outcome
// record — the only content whose loss the no-snapshot startup refusal
// guards against. Lease records alone are left behind by a crash inside
// the first boot window (initLease runs before the base snapshot) and
// are recovered through the ceiling scan instead.
func journalHoldsOps(recs []journalRecord) bool {
	for _, rec := range recs {
		if rec.Kind == recOp || rec.Kind == recDone {
			return true
		}
	}
	return false
}

// syncDir fsyncs a directory, making a rename inside it crash-durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
