// Package server hosts one member of a networked Skueue cluster: a
// core.Cluster fragment running over the TCP transport, one listener
// speaking both the member-to-member envelope protocol and the remote
// client protocol (the first Hello frame of a connection picks the
// dialect), and the seed-side admission handshake that lets late members
// join a running cluster by address.
//
// Topology bootstrap is coordination-free: all bootstrap members share
// (seed, procs, member list) and derive identical rings, node addresses
// and address books (see core.NewMember). A joining member instead asks
// the seed member (index 0) for a member index and process ID, receives
// the address book, and then enters through the paper's JOIN protocol
// (§IV-A) — its three virtual nodes relay requests through their
// responsible nodes until an update phase splices them into the ring
// (boot.go).
//
// # One operation lifecycle
//
// Every client operation — from an anonymous connection or a durable
// session (session.go), on a member with or without a state directory —
// walks the same path, written once in this file: submit polices and
// dedupes it, reserves its request ID, registers it in the in-flight
// table (Server.ops), stages its op record and only then injects it into
// the core; resolve retires it when the completion arrives — even one
// that fires inside the inject call —, stages the outcome record and parks the CliDone
// frame behind it; releaseDone hands the frame to the client once the
// record is durable. Stable storage sits behind the durability interface
// (durability.go), chosen once in New: the operation journal when
// Config.StateDir is set (journal.go), where "durable" means the
// group-commit fsync covering the record has returned; volatile without,
// where every release runs inline. The lifecycle never asks which one it
// holds. DESIGN.md ("The member host") tabulates the steps.
//
// # Fail-stop recovery
//
// With Config.StateDir set, the member periodically persists a
// write-ahead snapshot: its core image (core.Cluster.SnapshotMember — DHT
// entries, queue and stack positions, wave buffers, the stack combiner's
// residual word, completion history) plus the transport's receive cursors
// (tcp.Peer.CaptureState). Acknowledgments to peers are only released
// once the snapshot holding their effects is durable (tcp.Options
// .AckGate), so after a crash every message the snapshot misses is still
// buffered at its sender and is replayed when the restarted member
// reconnects.
//
// Client operations are exactly-once across the crash: every accepted
// operation is journaled under its durable request ID before any answer
// can be released, and every client-visible completion is journaled
// before its CliDone frame goes out — the frames are parked on the
// journal's release queue and go out once the fsync coalescing their
// batch returns, taking the disk entirely off the runner goroutine. A
// restart finds the snapshot, rebuilds the member with
// core.RestoreMember under a fresh boot epoch, re-injects the journaled
// operations the snapshot does not cover under their original request IDs — at their original wave
// boundaries, so the re-executed interval reproduces the crashed
// incarnation's batches — announces its (possibly new) address through
// the seed's rejoin handshake, and resumes (durability.go); peers
// that were blocked on the crashed member unstall as their links replay,
// and receiver-side request-ID dedupe collapses re-sent effects onto the
// originals. Senders that should NOT wait forever set Config.GiveUp:
// when a member stays unreachable past it, pending client operations fail
// with an unreachable error instead of blocking (see wire.CliDone).
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"skueue/internal/batch"
	"skueue/internal/core"
	"skueue/internal/seqcheck"
	"skueue/internal/transport"
	"skueue/internal/transport/tcp"
	"skueue/internal/wire"
)

// Config configures one cluster member.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	// Ignored when Listener is set.
	Addr string
	// Listener, when non-nil, is used instead of binding Addr; the server
	// takes ownership. Pre-binding lets tests learn every member's address
	// before starting any of them.
	Listener net.Listener

	// Seed is the cluster-wide seed; all members must agree on it.
	Seed int64
	// Mode is "queue" (default), "stack" or "heap".
	Mode string
	// HeapLevels is the number of priority levels in heap mode (default
	// 4); ignored in the other modes. All members must agree on it.
	HeapLevels int

	// Bootstrap deployment: Index is this member's position in Members,
	// which lists every bootstrap member's address. Procs is the total
	// number of bootstrap processes, distributed round-robin over the
	// members (default: one per member). All bootstrap members must agree
	// on Procs and Members.
	Index   int
	Procs   int
	Members []string

	// Join, when set, ignores the bootstrap fields: the member asks the
	// seed member at this address for admission and enters via the JOIN
	// protocol. A member restarting from a snapshot uses it to announce
	// its address through the seed's rejoin handshake instead.
	Join string

	// StateDir, when set, enables fail-stop recovery: the member persists
	// write-ahead snapshots there and restarts from the newest one.
	StateDir string
	// SnapshotEvery is the snapshot cadence (default 250ms). Shorter
	// intervals shrink both the replay window after a crash and the
	// acknowledgment-release latency (peer send buffers drain on release).
	SnapshotEvery time.Duration
	// GiveUp, when positive, bounds how long this member's links redial an
	// unreachable peer before failing pending client operations with an
	// unreachable error (fail-stop detection), and how long the join
	// handshake retries an unreachable seed (default 15s for the latter).
	// It must exceed SnapshotEvery: with write-ahead acknowledgments a
	// healthy peer's frames stay unacknowledged for up to one snapshot
	// interval.
	GiveUp time.Duration

	// JournalBatchDelay, when positive, holds a journal batch open this
	// long (or until 64 operations are staged) to accumulate more
	// operations before the fsync — higher throughput for up to this much
	// added confirmation latency. 0 (the default) flushes whenever the
	// journal writer is idle: batches then form naturally while the
	// previous fsync is in flight, adding no latency when the disk keeps
	// up.
	JournalBatchDelay time.Duration

	// Tick is the TIMEOUT cadence of the transport (default 1ms).
	Tick time.Duration
	// Shape is an optional WAN delivery profile applied to this member's
	// inbound peer traffic (see transport.Shape and tcp.Options.Shape);
	// the chaos harness uses it to run realistic wide-area scenarios on
	// one host. The zero Shape delivers immediately.
	Shape transport.Shape
	// Logf receives diagnostics; default discards.
	Logf func(format string, args ...any)
}

// Server is a running cluster member.
//
//skueue:snapshot-state diskSnapshot
type Server struct {
	cfg  Config
	lis  net.Listener
	peer *tcp.Peer
	cl   *core.Cluster
	mode batch.Mode
	logf func(string, ...any)

	//skueue:lock 20
	//skueue:ephemeral -- mutex; its zero value is ready after restore
	mu sync.Mutex
	// ops is the in-flight table: every accepted operation from just before
	// its injection to its resolve, by request ID. Connection-scoped entries
	// die with their connection; session entries are the reverse index of
	// their session's ops map and are rebuilt with it on restore.
	//
	//skueue:guarded-by mu
	ops map[uint64]inflight
	//skueue:guarded-by mu
	//skueue:ephemeral -- round-robin cursor; pure load balancing
	rr int // round-robin over local procs
	// sessions indexes the durable client sessions by client-chosen ID.
	//
	//skueue:guarded-by mu
	sessions map[string]*durSession
	// Seed-side admission state (member 0 only).
	//
	//skueue:guarded-by mu
	nextIndex int32
	//skueue:guarded-by mu
	nextPid int32
	//skueue:guarded-by mu
	//skueue:ephemeral -- shutdown latch; a restored server is by definition not closed
	closed bool
	// procsTotal is the bootstrap process count, persisted in snapshots.
	procsTotal int
	// snapQuit stops the snapshot loop (nil when StateDir is unset).
	//
	//skueue:ephemeral -- snapshot-loop lifecycle channel, recreated by Start
	snapQuit chan struct{}
	// snapMu serializes SnapshotNow: the capture-write-release sequence
	// must be atomic, or a slow periodic snapshot could overwrite a newer
	// one whose acknowledgments were already released — losing the frames
	// between the two cursors for good. The capture-write sequence takes
	// s.mu and runs DoSync inside, so snapMu ranks below everything.
	//
	//skueue:lock 10 io
	//skueue:ephemeral -- mutex; its zero value is ready after restore
	snapMu sync.Mutex
	// lastSnapStats summarizes the in-flight operations of the newest
	// written snapshot (under snapMu; tests assert a kill happened with a
	// non-empty combiner residual through it).
	//
	//skueue:guarded-by snapMu
	lastSnapStats core.SnapshotStats
	//skueue:guarded-by snapMu
	snapCount int64

	// dur is the member's stable storage, chosen once in New: the
	// operation journal with a StateDir (journal.go), volatile without
	// (durability.go). plan is the restart re-submission schedule,
	// runner-confined after Start (built before the transport starts,
	// consumed by the onFire callback and resolve, which both run on the
	// runner goroutine).
	dur  durability
	plan *replayPlan

	// replayPeers are the senders the restored snapshot held receive
	// cursors for — the only links that can still deliver pre-crash
	// frames. replayConverged latches once every one of them has fenced
	// (tcp.ReplayFenced), the core holds no replayed serves, and the plan
	// drained: from then on fresh client operations cannot change the
	// shape of a wave the replay must reproduce, so the submit gate stops
	// parking them. Both runner-confined after Start.
	replayPeers []int32
	//skueue:ephemeral -- per-boot replay progress latch; every restore starts unconverged
	replayConverged bool

	// sendsParked counts outbound peer frames held by the WAL-before-send
	// gate (gateSend): emitted by the core, but not yet enqueued on their
	// link because a journal batch staged at emission time had not synced.
	// Runner-confined; while it is nonzero a snapshot capture refuses the
	// cut (the parked frames are in no link's replay buffer, so a restore
	// from such a snapshot would never re-send them).
	sendsParked int

	// orphans tracks operations that were injected but whose journal
	// append failed: the client was answered indeterminate, yet the
	// operation still completes eventually — resolve logs, counts and
	// best-effort journals the outcome instead of dropping it silently,
	// keeping the on-disk trace truthful about what executed (under mu).
	//
	//skueue:guarded-by mu
	//skueue:ephemeral -- accounting for already-indeterminate outcomes; the client contract needs no cross-restart memory of them
	orphans map[uint64]bool
	//skueue:guarded-by mu
	//skueue:ephemeral -- diagnostic counter
	orphanFailed int64 // ops whose journal append failed after injection
	//skueue:guarded-by mu
	//skueue:ephemeral -- diagnostic counter
	orphanResolved int64 // orphaned ops whose completion later surfaced

	// conns tracks accepted connections so Close can unblock their
	// handlers (the remote end may outlive us); cliConns is the subset
	// currently serving the remote client protocol (CloseClientConns
	// severs only those, sparing the peer links).
	//
	//skueue:guarded-by mu
	//skueue:ephemeral -- live connections; nothing to restore, clients re-dial
	conns map[net.Conn]struct{}
	//skueue:guarded-by mu
	//skueue:ephemeral -- live connections; nothing to restore, clients re-dial
	cliConns map[*wire.Conn]struct{}

	//skueue:ephemeral -- goroutine bookkeeping for Close
	wg sync.WaitGroup
}

// inflight is one accepted client operation between registration (just
// ahead of its injection) and resolve. A connection-scoped operation is answered on conn under the
// connection's sequence seq; a session operation (sd set, conn nil) is
// answered on whichever connection its session has attached when the
// answer is released, under the per-session sequence seq.
type inflight struct {
	conn *session
	sd   *durSession
	seq  uint64
}

// New builds and starts a member.
func New(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	mode := batch.Queue
	switch cfg.Mode {
	case "", "queue":
	case "stack":
		mode = batch.Stack
	case "heap":
		mode = batch.Heap
		if cfg.HeapLevels == 0 {
			cfg.HeapLevels = defaultHeapLevels
		}
		if cfg.HeapLevels < 1 {
			return nil, fmt.Errorf("server: heap mode needs at least one priority level, got %d", cfg.HeapLevels)
		}
	default:
		return nil, fmt.Errorf("server: unknown mode %q", cfg.Mode)
	}
	lis := cfg.Listener
	if lis == nil {
		var err error
		lis, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:      cfg,
		lis:      lis,
		mode:     mode,
		logf:     cfg.Logf,
		dur:      volatile{},
		ops:      make(map[uint64]inflight),
		sessions: make(map[string]*durSession),
		orphans:  make(map[uint64]bool),
		conns:    make(map[net.Conn]struct{}),
		cliConns: make(map[*wire.Conn]struct{}),
	}
	var err error
	var disk *diskSnapshot
	var journalRecs []journalRecord
	if cfg.StateDir != "" {
		// A crash mid-write leaves CreateTemp leftovers behind; without a
		// sweep they accumulate forever (one per interrupted snapshot or
		// journal compaction).
		sweepStaleTemps(cfg.StateDir, cfg.Logf)
		if disk, err = loadSnapshot(cfg.StateDir); err != nil {
			lis.Close()
			return nil, fmt.Errorf("server: reading snapshot: %w", err)
		}
		if journalRecs, err = readJournal(filepath.Join(cfg.StateDir, journalFile)); err != nil {
			lis.Close()
			return nil, fmt.Errorf("server: reading operation journal: %w", err)
		}
		if disk == nil && journalHoldsOps(journalRecs) {
			// A journal without a snapshot means confirmed operations with
			// no cut to replay them against. Refusing beats silently
			// discarding them; the base snapshot taken below closes this
			// window for every member that starts cleanly. Lease records
			// alone do NOT trip this (a crash inside the first boot window
			// leaves them behind) — their ceilings are recovered below and
			// the fresh start is otherwise clean.
			lis.Close()
			return nil, fmt.Errorf("server: state dir %s holds %d journaled records including operations but no snapshot; refusing to discard them", cfg.StateDir, len(journalRecs))
		}
		j, err := openJournal(cfg.StateDir, disk == nil, cfg.JournalBatchDelay)
		if err != nil {
			lis.Close()
			return nil, fmt.Errorf("server: opening operation journal: %w", err)
		}
		s.dur = j
	}
	switch {
	case disk != nil:
		err = s.startRestore(disk, journalRecs)
	case cfg.Join != "":
		err = s.startJoining()
	default:
		err = s.startBootstrap()
	}
	if err == nil {
		// Stay above every lease ceiling the old journal carried even
		// when there was no snapshot to restore (a crash inside the first
		// boot window): the dead incarnation may have issued request IDs
		// up to its durable ceiling, and re-issuing one would collide in
		// the peers' dedupe rings. startRestore already scanned these;
		// repeating the scan is idempotent and covers the fresh-boot
		// paths too.
		for _, rec := range journalRecs {
			if rec.Kind == recLease {
				s.cl.AdvanceReqSeq(rec.Ceiling)
			}
		}
		// A durable sequence lease before any client can submit: request
		// IDs may only be issued below a ceiling that is already on disk
		// (journal.go, "The sequence lease"). The runner has not started,
		// so reading the restored counter directly is safe. (Volatile
		// members have no old journal and nothing to persist: both steps
		// are no-ops.)
		err = s.dur.initLease(s.cl.ReqSeq())
	}
	if err != nil {
		s.dur.close()
		lis.Close()
		return nil, err
	}
	s.peer.Start()
	if cfg.StateDir != "" && disk == nil {
		// Base snapshot before any client can be confirmed: without one, a
		// crash inside the first snapshot interval would leave journaled —
		// confirmed — operations with no cut to replay them against. A
		// bootstrap member is quiescent and succeeds immediately; a joiner
		// may need a few retries while its JOIN settles.
		deadline := time.Now().Add(s.joinGiveUp())
		for {
			err := s.SnapshotNow()
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrNotQuiescent) || time.Now().After(deadline) {
				s.logf("server[%d]: base snapshot not written (%v); durability begins at the first periodic snapshot", s.peer.Me().Index, err)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.StateDir != "" {
		s.snapQuit = make(chan struct{})
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Addr returns the member's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the member gracefully: with a StateDir it takes a final
// snapshot first — retrying briefly if a shutdown during churn finds the
// member not quiescent (see finalSnapshot) — so a clean shutdown loses
// nothing. In-flight client operations fail with closed connections; the
// hosted nodes stop processing.
func (s *Server) Close() { s.shutdown(true) }

// Kill stops the member WITHOUT the final snapshot, simulating a
// fail-stop crash: whatever happened since the last periodic snapshot is
// lost and must be recovered through peer replay on restart. Tests use it
// to exercise the recovery path.
func (s *Server) Kill() { s.shutdown(false) }

func (s *Server) shutdown(graceful bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.snapQuit != nil {
		close(s.snapQuit)
	}
	if graceful && s.cfg.StateDir != "" {
		switch err := s.finalSnapshot(); {
		case err == nil:
		case errors.Is(err, ErrFinalSnapshotSkipped):
			s.logf("server[%d]: %v", s.peer.Me().Index, err)
		default:
			s.logf("server[%d]: final snapshot failed: %v", s.peer.Me().Index, err)
		}
	}
	s.lis.Close()
	s.peer.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if graceful {
		s.dur.close()
	} else {
		// A simulated crash must lose what a real one would: staged
		// records whose group commit never synced are dropped, not
		// flushed on the way out.
		s.dur.discard()
	}
}

// peerDown handles a give-up notification from the transport: some member
// stayed unreachable past Config.GiveUp. Every pending client operation
// may transitively depend on the dead member (its position assignment,
// its DHT fragment), so all of them fail with an unreachable error rather
// than blocking forever; the member itself keeps serving — operations
// that avoid the dead member's fragment still succeed, and if the member
// ever restarts, replay resumes where it left off.
//
// Connection-scoped operations are forgotten with the notification.
// Session operations get it on their attached connections, but their
// in-flight entries stay: if the operation ever completes, its outcome
// still retires into the session's retention map — the client that
// treated the notification as final has by then acked past the sequence,
// and the stale outcome is dropped there (resolve).
func (s *Server) peerDown(idx int32) {
	type failing struct {
		sess  *session
		seq   uint64
		reqID uint64
	}
	s.mu.Lock()
	ws := make([]failing, 0, len(s.ops))
	for id, w := range s.ops {
		if to := s.targetLocked(w); to != nil {
			ws = append(ws, failing{to, w.seq, id})
		}
		if w.sd == nil {
			delete(s.ops, id)
		}
	}
	s.mu.Unlock()
	if len(ws) == 0 {
		return
	}
	s.logf("server[%d]: member %d unreachable past %v; failing %d pending operations",
		s.peer.Me().Index, idx, s.cfg.GiveUp, len(ws))
	for _, f := range ws {
		// Not journaled: this is a failure notification, not an outcome —
		// the operation may still complete if the member ever returns.
		f.sess.send(wire.CliDone{
			Seq:         f.seq,
			ReqID:       f.reqID,
			Err:         fmt.Sprintf("cluster member %d unreachable past the %v give-up timeout", idx, s.cfg.GiveUp),
			Unreachable: true,
		})
	}
}

// HasAnchor reports whether this member currently hosts the anchor node
// (tests pick restart victims with it).
func (s *Server) HasAnchor() bool {
	var has bool
	s.peer.DoSync(func() { has = s.cl.AnchorNode() != nil })
	return has
}

// Diagnose reports which local nodes are stalled waiting for wave
// contributions (see core.Cluster.Diagnose) — the first tool to reach for
// when a networked deployment wedges.
func (s *Server) Diagnose() []string {
	var out []string
	s.peer.DoSync(func() { out = s.cl.Diagnose() })
	return out
}

// wireCallbacks connects completion and ack events to the in-flight table.
// All callbacks run on the transport's runner goroutine.
func (s *Server) wireCallbacks() {
	s.cl.SetLogf(s.logf)
	myTag := uint64(s.peer.Me().Index + 1)
	s.cl.SetOnComplete(func(c seqcheck.Completion) {
		if core.ReqIDMember(c.ReqID) != myTag {
			return // recorded here, issued by another member
		}
		if c.Kind == seqcheck.Enqueue {
			// Local enqueue stored locally, or combined stack push: the
			// put-ack may never come (it does not for combined pairs), so
			// resolve on the completion itself.
			s.resolve(c.ReqID, wire.CliDone{Rounds: c.Done - c.Born, Rank: c.Value})
			return
		}
		s.resolve(c.ReqID, wire.CliDone{
			Bottom: c.Bottom,
			Value:  c.Blob,
			Rounds: c.Done - c.Born,
			Rank:   c.Value,
		})
	})
	s.cl.SetOnPutAck(func(reqID uint64) {
		// A bare put-ack does not know its serialization rank; session
		// rank tracking skips NoValue.
		s.resolve(reqID, wire.CliDone{Rank: seqcheck.NoValue})
	})
	if s.cfg.StateDir != "" {
		// Only a member that can restart keeps a fire log.
		s.cl.SetOnFire(s.noteFire)
	}
}

// noteFire is the wave-fire callback of a member with stable storage (no
// other member hears of its fires): the fire goes into the journal's fire
// log — also one that folded no child wave: that it did not is what the
// replay must repeat — and while a restart plan is being replayed the
// journaled operations held for this fire are re-submitted, into the wave
// they originally rode.
func (s *Server) noteFire(node transport.NodeID, wave int64, folded []core.FoldedWaveImage) {
	s.dur.appendFire(node, wave, folded)
	if s.plan == nil || s.replayConverged {
		return
	}
	for _, rec := range s.plan.take(node, wave) {
		s.cl.Inject(rec.Node, rec.op())
	}
}

// resolve completes the in-flight operation reqID: the prepared response
// takes the operation's sequence, a session operation is retired into its
// session's retention map, and the outcome record is staged with the
// CliDone frame parked behind it — the frame goes out once the record is
// durable (after the covering fsync on a journal, at once on a volatile
// member), so a confirmed result always survives a crash of this member.
// Divergence auditing stays here on the runner: outcomes journaled by the
// crashed incarnation were released only after their sync, so anything in
// plan.outcomes was client-visible and must be reproduced. A completion
// with no in-flight entry belongs to an orphaned operation (its op record
// never became durable — see opFailed), to a connection that is gone, or
// to a journaled operation re-injected by a restart; only the first is
// recorded. submit registers before it injects, so a completion fired
// inside the inject call (stack local combining) finds its entry like any
// other, and the op record it staged first precedes this outcome in the
// journal. Runs on the runner goroutine.
func (s *Server) resolve(reqID uint64, done wire.CliDone) {
	done.ReqID = reqID
	if s.plan != nil {
		// Divergence audit: a re-executed operation must reach the same
		// client-visible outcome the crashed incarnation released — same
		// bottom-ness AND same value bytes.
		if prev, ok := s.plan.outcomes[reqID]; ok {
			delete(s.plan.outcomes, reqID)
			if prev.Bottom != done.Bottom || !bytes.Equal(prev.Value, done.Value) || prev.Err != done.Err {
				s.logf("server[%d]: DIVERGENT replay outcome for op %d: released (bottom=%v value=%dB err=%q), re-executed (bottom=%v value=%dB err=%q)",
					s.peer.Me().Index, reqID,
					prev.Bottom, len(prev.Value), prev.Err,
					done.Bottom, len(done.Value), done.Err)
			}
		}
	}
	s.mu.Lock()
	w, ok := s.ops[reqID]
	delete(s.ops, reqID)
	orphan := !ok && s.orphans[reqID]
	if orphan {
		delete(s.orphans, reqID)
		s.orphanResolved++
	}
	stale := false
	if ok {
		done.Seq = w.seq
		if w.sd != nil {
			// Retain at STAGING time — under s.mu, on this (runner)
			// goroutine — so a snapshot capture is always consistent with
			// its journal cut (see diskSnapshot.Sessions); the parked
			// release only delivers. A client that already acked past the
			// sequence (it treated a give-up notification as final) gets
			// nothing retained and nothing sent.
			delete(w.sd.ops, w.seq)
			if stale = w.seq <= w.sd.acked; !stale {
				w.sd.outcomes[w.seq] = done
			}
		}
	}
	s.mu.Unlock()
	var release journalRelease
	switch {
	case stale:
		return
	case ok:
		release = s.releaseDone(w, done)
	case orphan:
		// The op record never became durable and the client was already
		// answered indeterminate, but the operation executed anyway: log
		// and count it, and journal the outcome best-effort, so the
		// divergence audit and SnapshotInfo stay truthful about what was
		// actually in flight.
		s.logf("server[%d]: orphaned op %d completed after its journal append failed (bottom=%v value=%dB err=%q)",
			s.peer.Me().Index, reqID, done.Bottom, len(done.Value), done.Err)
	default:
		return
	}
	s.dur.appendDone(reqID, done, release)
}

// targetLocked returns the connection an answer for w goes to right now:
// the submitting connection, or for a session operation whichever
// connection the session has attached (nil while the client is away).
//
//skueue:locked mu
func (s *Server) targetLocked(w inflight) *session {
	if w.sd != nil {
		return w.sd.cur
	}
	return w.conn
}

// releaseDone builds the parked release of one staged outcome — the only
// way a result-bearing CliDone reaches a client. On a clean sync the
// frame goes out: a session outcome to whichever connection is attached
// NOW (the client may have reconnected since the record was staged),
// unless the client acked past it meanwhile. On a journal failure the
// client gets an indeterminate error instead, and a session's retained
// copy is withdrawn — confirming an outcome the restarted member would
// not remember is the one forbidden move. Runs on the journal writer
// goroutine (inline on the runner on a volatile member).
//
//skueue:journaled-release
func (s *Server) releaseDone(w inflight, done wire.CliDone) journalRelease {
	return func(err error) {
		to := w.conn
		if w.sd != nil {
			s.mu.Lock()
			to = w.sd.cur
			kept, retained := w.sd.outcomes[w.seq]
			switch {
			case err != nil && retained && kept.ReqID == done.ReqID:
				delete(w.sd.outcomes, w.seq)
			case err == nil && !retained:
				to = nil
			}
			s.mu.Unlock()
		}
		if err != nil {
			s.logf("server[%d]: journaling completion of op %d: %v", s.peer.Me().Index, done.ReqID, err)
			done = wire.CliDone{
				Seq: w.seq, ReqID: done.ReqID, Unreachable: true,
				Err: fmt.Sprintf("operation outcome could not be journaled: %v", err),
			}
		}
		if to != nil {
			to.send(done)
		}
	}
}

// opFailed handles a failed op-record append; the operation is injected
// all the same (submit does not look back): the operation, if still in flight, is answered with an
// indeterminate error, and the request ID is remembered as an orphan so
// the completion that eventually surfaces at resolve is logged, counted
// and best-effort journaled rather than silently dropped. If the entry is
// already gone the outcome path owns the answer (its parked release
// reports the same journal failure) and nothing is owed here. Runs on the
// journal writer goroutine (inline on the runner if the journal had
// already failed when the record was staged).
func (s *Server) opFailed(reqID uint64, err error) {
	s.mu.Lock()
	w, ok := s.ops[reqID]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.ops, reqID)
	if w.sd != nil {
		delete(w.sd.ops, w.seq)
	}
	s.orphans[reqID] = true
	s.orphanFailed++
	to := s.targetLocked(w)
	s.mu.Unlock()
	s.logf("server[%d]: journaling op %d: %v", s.peer.Me().Index, reqID, err)
	if to != nil {
		to.send(wire.CliDone{
			Seq: w.seq, ReqID: reqID, Unreachable: true,
			Err: fmt.Sprintf("operation could not be journaled: %v", err),
		})
	}
}

// OrphanInfo reports how many operations were injected but never
// journaled (their clients were answered indeterminate), and how many of
// those later completed anyway. Non-zero numbers mean the journal failed
// at some point; the completions were logged and counted rather than
// silently dropped.
func (s *Server) OrphanInfo() (failed, resolved int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orphanFailed, s.orphanResolved
}

// pickClient returns the local node to inject the next request at,
// round-robining over the member's live local processes.
func (s *Server) pickClient() (transport.NodeID, error) {
	local := s.cl.LocalProcs()
	if len(local) == 0 {
		return transport.None, errors.New("no live local process")
	}
	s.mu.Lock()
	idx := local[s.rr%len(local)]
	s.rr++
	s.mu.Unlock()
	return s.cl.Client(idx), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, nc)
				s.mu.Unlock()
			}()
			s.handleConn(wire.NewConn(nc))
		}()
	}
}

func (s *Server) handleConn(conn *wire.Conn) {
	v, err := conn.Read()
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := v.(wire.Hello)
	if !ok {
		s.logf("server[%d]: first frame was %T, closing", s.peer.Me().Index, v)
		conn.Close()
		return
	}
	switch hello.Kind {
	case "peer":
		s.peer.AcceptPeer(conn, hello) // returns when the link closes
	case "client":
		s.serveClient(conn, hello)
	default:
		s.logf("server[%d]: unknown hello kind %q", s.peer.Me().Index, hello.Kind)
		conn.Close()
	}
}

func (s *Server) serveClient(conn *wire.Conn, hello wire.Hello) {
	// The buffer absorbs completion bursts (one wave can resolve thousands
	// of async operations back-to-back); only a client that stopped
	// reading altogether fills it, and such a client is disconnected
	// rather than allowed to block the runner (see session.send).
	sess := &session{conn: conn, out: make(chan any, 1<<14), quit: make(chan struct{})}
	s.mu.Lock()
	s.cliConns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cliConns, conn)
		s.mu.Unlock()
	}()
	defer s.dropConnOps(sess)
	defer close(sess.quit)
	defer conn.Close()

	var sd *durSession
	resumed := false
	var sessSeq uint64
	if hello.Session != "" {
		sd, resumed = s.attachSession(hello, sess)
		defer s.detachSession(sd, sess)
		sessSeq = s.sessionHighSeq(sd)
	}
	if err := conn.Write(wire.HelloAck{
		Book: s.peer.Book(), Mode: s.modeString(), HeapLevels: int32(s.cfg.HeapLevels),
		Index:          s.peer.Me().Index,
		SessionResumed: resumed, SessionSeq: sessSeq,
	}); err != nil {
		return
	}
	if hello.Session != "" && hello.SessionResume && !resumed {
		// Attach-only resume of a session this member does not hold: the
		// ack already said so; the client re-locates the owner through the
		// book. Creating an empty session here would strand the real one.
		return
	}
	// Writer: responses and completion notifications.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case v := <-sess.out:
				if err := conn.Write(v); err != nil {
					return
				}
			case <-sess.quit:
				return
			}
		}
	}()
	if sd != nil {
		// Outcomes completed while the client was away go out before any
		// new traffic; runs a journal barrier so nothing unsynced leaves.
		s.redeliverRetained(sd, sess)
	}

	for {
		v, err := conn.Read()
		if err != nil {
			return
		}
		switch m := v.(type) {
		case wire.CliEnqueue:
			if sd != nil {
				s.sessionAck(sd, m.Ack)
			}
			s.submit(sess, sd, m.Seq, true, m.Pri, m.PriOp, m.Value)
		case wire.CliDequeue:
			if sd != nil {
				s.sessionAck(sd, m.Ack)
			}
			s.submit(sess, sd, m.Seq, false, 0, m.PriOp, nil)
		case wire.CliSessionAck:
			if sd != nil {
				s.sessionAck(sd, m.Ack)
			}
		case wire.CliHistory:
			var ops []seqcheck.Completion
			s.peer.DoSync(func() {
				ops = append(ops, s.cl.History().Ops...)
			})
			sess.send(wire.CliHistoryResp{Ops: ops})
		case wire.CliJoin:
			sess.send(s.admit(m))
		default:
			s.logf("server[%d]: unexpected client frame %T", s.peer.Me().Index, v)
			return
		}
	}
}

// submit runs one client operation through the member's lifecycle, on
// the runner goroutine: police the flavour, dedupe a session's
// re-presented operation, wait out a restart replay, reserve the request
// ID (core.Cluster.NextReqID — no side effect), check the sequence lease
// for it, read the wave it will ride off the injection node, register the
// operation in flight, stage its session and op records, inject it under
// the reserved ID. resolve takes it from there
// when the completion arrives. Completions run on the runner too, and the
// one that can fire synchronously inside the inject itself (a stack pop
// combined on the spot with a buffered push, which completes both) finds
// the entry already registered and the op record already staged ahead of
// the outcomes it causes. The runner goroutine serializes the whole
// window, so it cannot interleave with other requests.
//
// The op record is STAGED under its durable request ID before the
// operation exists in the core — the group-commit writer makes it durable
// off the runner — and every CliDone for the operation is parked behind
// its own outcome record, so nothing client-visible escapes before the
// covering fsync (journal.go). A crash after the op record synced
// re-injects the operation on restart; a crash before it loses an
// operation no client was ever answered for. On a volatile member the
// same steps run with every release firing inline.
func (s *Server) submit(sess *session, sd *durSession, seq uint64, enq bool, pri int32, priOp bool, value []byte) {
	s.peer.Do(func() {
		if priOp != (s.mode == batch.Heap) {
			// Mode police: a priority operation on a queue/stack cluster
			// (or a plain one on a heap cluster) never injects. The
			// rejection is deterministic — it depends only on the immutable
			// cluster mode — so a session replay re-deriving it is safe and
			// it needs no journaled identity.
			sess.send(wire.CliDone{
				Seq: seq, WrongMode: true,
				Err: fmt.Sprintf("operation flavour does not match cluster mode %q", s.modeString()),
			})
			return
		}
		if priOp && enq && (pri < 0 || int(pri) >= s.cl.HeapLevels()) {
			sess.send(wire.CliDone{
				Seq: seq,
				Err: fmt.Sprintf("priority %d outside [0,%d)", pri, s.cl.HeapLevels()),
			})
			return
		}
		if sd != nil {
			// Session dedupe before touching the cluster: a re-presented
			// operation (the client reconnected and replayed its unresolved
			// window) must not inject twice.
			s.mu.Lock()
			if done, ok := sd.outcomes[seq]; ok {
				s.mu.Unlock()
				// Already completed and retained: redeliver, parked behind
				// a duplicate done record (restore collapses duplicates
				// idempotently), so even a redelivery waits for a covering
				// fsync.
				s.dur.appendDone(done.ReqID, done, s.releaseDone(inflight{sd: sd, seq: seq}, done))
				return
			}
			if seq <= sd.acked {
				s.mu.Unlock()
				return // delivered and acknowledged; the client moved on
			}
			if _, inFlight := sd.ops[seq]; inFlight {
				s.mu.Unlock()
				return // already executing; resolve will deliver it
			}
			s.mu.Unlock()
		}
		if s.plan != nil && !s.replayConverged {
			// Restart replay gate: until every pre-crash sender's replay
			// fence arrived, the core applied its parked replayed serves and
			// repeated its logged fires, and the journal plan re-submitted
			// its held operations, a
			// fresh operation could join a wave whose serve the crashed
			// incarnation already consumed — the shape guard would refuse
			// the replayed serve and wedge the member. Park the submission
			// and retry; the dedupe above makes re-entry harmless, and a
			// client that reconnected fast sees only added latency, never
			// a lost operation.
			if !s.peer.ReplayFenced(s.replayPeers) || s.cl.HeldReplayServes() > 0 ||
				s.cl.ScriptedFires() > 0 || s.plan.pending() > 0 {
				time.AfterFunc(2*time.Millisecond, func() {
					s.submit(sess, sd, seq, enq, pri, priOp, value)
				})
				return
			}
			s.replayConverged = true
			s.logf("server[%d]: restart replay converged; admitting fresh client operations",
				s.peer.Me().Index)
		}
		node, err := s.pickClient()
		if err != nil {
			sess.send(wire.CliDone{Seq: seq, Err: err.Error()})
			return
		}
		reqID := s.cl.NextReqID()
		if !s.dur.coverSeq(core.ReqIDSeq(reqID)) {
			// The request ID is not covered by a durable lease ceiling:
			// issuing it could let a crash re-issue the same ID, which peer
			// dedupe would then swallow. Refuse BEFORE injection — the
			// operation never exists, so the client can simply retry. Only
			// reachable when the journal failed or cannot sync a lease
			// extension within half a span of operations.
			sess.send(wire.CliDone{
				Seq: seq,
				Err: "operation refused: journal sequence lease is not durable; retry",
			})
			return
		}
		// The op record names the wave the operation rides: the fire after
		// the ones the node has committed. Reading the counter in the task
		// that injects is what makes it exact — the transport evaluates
		// readiness between tasks (tcp, "Execution model"), so no fire can
		// fall between this read and the Inject below.
		op := journalRecord{ReqID: reqID, Node: node, IsDeq: !enq, Pri: pri, Value: value}
		if n, ok := s.cl.Node(node); ok {
			op.Wave = n.WaveSeq()
		}
		// In flight before the op record: the record's release can fire on
		// the journal writer as soon as it is staged, and a failed append
		// must find the entry to answer it. A session's own record goes
		// ahead of its first op record, so a restart knows the session
		// existed even before any outcome was retained in a snapshot.
		w := inflight{conn: sess, seq: seq}
		firstOp := false
		s.mu.Lock()
		if sd != nil {
			w = inflight{sd: sd, seq: seq}
			sd.ops[seq] = reqID
			op.Sess, op.CliSeq, firstOp = sd.id, seq, !sd.journaled
			sd.journaled = true
		}
		s.ops[reqID] = w
		s.mu.Unlock()
		if firstOp {
			s.dur.appendSession(op.Sess)
		}
		s.dur.appendOp(op, func(err error) {
			if err != nil {
				s.opFailed(reqID, err)
			}
		})
		s.cl.Inject(node, op.op())
	})
}

// dropConnOps forgets the connection-scoped operations of a finished
// connection so long-lived servers do not leak one entry per abandoned
// request. The operations themselves are already in flight and still
// take their turn in the serialization — exactly like an abandoned
// in-process call (see Client.Dequeue) — their results just have nobody
// left to deliver to. Session operations stay: their outcomes retire into
// the session's retention map and wait for the client to resume.
func (s *Server) dropConnOps(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, w := range s.ops {
		if w.conn == sess {
			delete(s.ops, id)
		}
	}
}

// CloseClientConns severs every connection currently serving the remote
// client protocol, sparing the member-to-member peer links. Chaos/test
// hook: it simulates a client-facing network partition without killing
// the member — durable sessions must detach, retain their outcomes, and
// redeliver on resume.
func (s *Server) CloseClientConns() {
	s.mu.Lock()
	conns := make([]*wire.Conn, 0, len(s.cliConns))
	for c := range s.cliConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
