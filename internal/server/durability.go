package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"skueue/internal/core"
	"skueue/internal/transport"
	"skueue/internal/transport/tcp"
	"skueue/internal/wire"
)

// durability is the member's stable storage as the operation lifecycle
// sees it. The server stages records and parks releases through it and
// never asks which implementation it holds: *opJournal (a StateDir is
// configured) makes records durable with a group-commit fsync before
// their releases run; volatile (no StateDir) has nothing to wait for.
// New picks one, once.
type durability interface {
	// Staging — runner goroutine. A release runs with nil once its record
	// is durable, or with the storage failure if it never will be.
	appendSession(sess string)
	appendFire(node transport.NodeID, wave int64, folded []core.FoldedWaveImage)
	appendOp(op journalRecord, release journalRelease)
	appendDone(reqID uint64, done wire.CliDone, release journalRelease)

	// The sequence lease: coverSeq reports whether a request sequence may
	// be issued; initLease establishes the first ceiling at boot.
	initLease(base uint64) error
	coverSeq(seq uint64) bool

	// Waiting for what is staged: the WAL-before-send gate's fast path and
	// slow path, and the blocking form for session resume.
	sendableNow() bool
	notifyDurable(fn journalRelease)
	barrier() error

	// The snapshot cut (read inside the capture) and the compaction that
	// follows once the snapshot covering the prefix is durable.
	offset() int64
	leaseCeiling() uint64
	truncatePrefix(offset int64) error

	// close flushes what is staged; discard drops it, as a crash would.
	close()
	discard()
}

// volatile is the durability of a member without a state directory: with
// no stable storage a record is as durable as it will ever be the moment
// it is staged, so every release runs inline on the calling goroutine with
// nil, the sequence lease always covers, and outbound frames never wait.
type volatile struct{}

func (volatile) appendSession(string) {}
func (volatile) appendFire(transport.NodeID, int64, []core.FoldedWaveImage) {
}
func (volatile) appendOp(_ journalRecord, release journalRelease) {
	release.run(nil)
}
func (volatile) appendDone(_ uint64, _ wire.CliDone, release journalRelease) {
	release.run(nil)
}
func (volatile) initLease(uint64) error          { return nil }
func (volatile) coverSeq(uint64) bool            { return true }
func (volatile) sendableNow() bool               { return true }
func (volatile) notifyDurable(fn journalRelease) { fn(nil) }
func (volatile) barrier() error                  { return nil }
func (volatile) offset() int64                   { return 0 }
func (volatile) leaseCeiling() uint64            { return 0 }
func (volatile) truncatePrefix(int64) error      { return nil }
func (volatile) close()                          {}
func (volatile) discard()                        {}

// gateSend is the WAL-before-send gate (tcp.Options.SendGate): no frame
// leaves this member while the operation journal holds records that are
// staged but not yet synced. A wave batch fires on the tick, typically
// well inside the group-commit window of the operations it carries; if
// it departed immediately, a crash before the fsync would lose the
// records of operations the cluster went on to execute — the restart
// would replay the wave without them (diverging from the serve shapes
// peers recorded, wedging the member) and a reconnecting session client
// would re-present an operation the journal never admitted, executing
// it twice. Holding the frame until the covering fsync closes both: a
// lost record now proves the operation never left the member.
//
// Ordering: the fast path runs only while no send is parked (the
// counter) and nothing staged is undurable (sendableNow), so it cannot
// overtake a parked frame. Parked frames ride the journal's release
// queue, which runs in staging order on the single writer goroutine,
// and hop back to the runner through Do — FIFO end to end. On a failed
// journal the frame is released anyway: durability is already void
// (appends refuse, clients get errors), and muting the member would
// additionally stall every peer waiting on its waves.
func (s *Server) gateSend(route func()) {
	if s.sendsParked == 0 && s.dur.sendableNow() {
		route()
		return
	}
	s.sendsParked++
	s.dur.notifyDurable(func(error) {
		s.peer.Do(func() {
			s.sendsParked--
			route()
		})
	})
}

// diskSnapshot is the on-disk image: one gob stream holding the cluster
// parameters, the member's core image and the transport receive cursors.
type diskSnapshot struct {
	Version    int // snapshotVersion
	Seed       int64
	Mode       string
	HeapLevels int
	Procs      int
	Pids       []int32
	NextIndex  int32
	NextPid    int32
	Member     *core.MemberSnapshot
	Peer       *tcp.PeerState
	Book       []wire.MemberInfo
	// SeqCeiling is the journal's pending sequence-lease ceiling at the
	// capture: a restart must advance the request counter past it even if
	// compaction dropped the lease records themselves (see journal.go,
	// "The sequence lease").
	SeqCeiling uint64
	// Sessions are the durable client sessions at the capture — dedupe
	// tables, retained outcomes, cursors. Captured inside the same DoSync
	// as the journal cut, so an outcome staged before the cut (and hence
	// compacted away with the prefix) is always in here, and one staged
	// after it is always in the journal suffix: between them, restore
	// rebuilds retention without a gap.
	Sessions []sessionImage
}

const snapshotFile = "snapshot.gob"

// snapshotVersion is the snapshot format this build writes and the only
// one it reads: gob drops the fields it does not know, so an image of
// another format would restore with part of its state silently lost.
// Version 3 adds what each node's siblings told of their ring edges and
// the process's up edge it read from them (NodeImage.SibViews, Up), from
// which the aggregation tree is read; version 2 holds each node's in-flight waves
// as one list (NodeImage.InFlight); version 1 held a single processing
// batch.
const snapshotVersion = 3

// loadSnapshot reads the member snapshot from dir; (nil, nil) when none
// exists yet (first boot). It is the load half of the restore path
// (startRestore consumes what it validates).
//
//skueue:snapshot-restore Server
func loadSnapshot(dir string) (*diskSnapshot, error) {
	// The captured link frames carry core protocol messages in their
	// interface-typed payloads; the decoder needs them registered before
	// any member of this process has constructed a cluster.
	core.RegisterWireTypes()
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var disk diskSnapshot
	if err := gob.NewDecoder(f).Decode(&disk); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", f.Name(), err)
	}
	if disk.Version != snapshotVersion {
		return nil, fmt.Errorf("%s: snapshot format version %d, this build reads only version %d", f.Name(), disk.Version, snapshotVersion)
	}
	if disk.Member == nil || disk.Peer == nil {
		return nil, fmt.Errorf("%s: incomplete snapshot", f.Name())
	}
	return &disk, nil
}

// writeSnapshot persists atomically: temp file, fsync, rename, directory
// fsync. A crash mid-write leaves the previous snapshot intact.
//
// Regression note: the directory fsync after the rename is load-bearing.
// Fsyncing only the temp file makes the CONTENT durable, but the rename
// lives in the directory — after a machine crash the directory entry can
// still point at the previous snapshot even though acknowledgments
// covering the new one were already released to peers, which would lose
// the frames between the two cursors for good. Snapshot durability (and
// therefore ReleaseAcks) requires the directory entry on stable storage.
func writeSnapshot(dir string, disk *diskSnapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweepStaleTemps(dir, nil)
	f, err := os.CreateTemp(dir, snapshotFile+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(disk); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// sweepStaleTemps removes CreateTemp leftovers (snapshot.gob.tmp-*,
// ops.journal.tmp-*) that a crash mid-write strands in the state
// directory; without the sweep they accumulate forever. The currently
// live snapshot and journal are never matched by the patterns.
func sweepStaleTemps(dir string, logf func(string, ...any)) {
	for _, pattern := range []string{snapshotFile + ".tmp-*", journalFile + ".tmp-*"} {
		stale, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			continue
		}
		for _, path := range stale {
			if err := os.Remove(path); err == nil && logf != nil {
				logf("server: removed stale temp file %s", path)
			}
		}
	}
}

// SnapshotNow captures and durably writes one member snapshot, then
// releases the acknowledgments it covers (the write-ahead step: peers may
// prune their send buffers only once the snapshot is on disk). It returns
// core.ErrNotQuiescent — and changes nothing — while churn is mid-flight;
// the periodic loop just retries next interval.
//
//skueue:snapshot-capture Server
func (s *Server) SnapshotNow() error {
	if s.cfg.StateDir == "" {
		return errors.New("server: no state dir configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var snap *core.MemberSnapshot
	var ps *tcp.PeerState
	var journalOff int64
	var seqCeiling uint64
	var sessImgs []sessionImage
	var err error
	s.peer.DoSync(func() {
		snap, err = s.cl.SnapshotMember()
		if err != nil {
			return
		}
		if s.sendsParked > 0 {
			// Frames held by the WAL-before-send gate are in no link's
			// replay buffer yet; a cut here would strand them across a
			// crash. They clear within a group-commit window — leave ps
			// nil and retry next interval.
			return
		}
		ps = s.peer.CaptureState()
		// The logical journal length at the cut: every record before it —
		// including records still staged for group commit — is covered by
		// this snapshot (staging runs on this goroutine).
		journalOff = s.dur.offset()
		seqCeiling = s.dur.leaseCeiling()
		// Session tables move only on this goroutine (submit/resolve) or
		// under s.mu (cursor advances from connection handlers), so the
		// capture here is consistent with the journal cut above: every
		// outcome whose done record precedes the cut is already in its
		// session's retention map.
		sessImgs = s.captureSessions()
	})
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("%w: shutting down", core.ErrNotQuiescent)
	}
	if ps == nil {
		// Frames parked for unknown pids or local deliveries mid-flight in
		// the task queue; both clear within a drain — retry next interval.
		return fmt.Errorf("%w: transport has frames in flight", core.ErrNotQuiescent)
	}
	s.mu.Lock()
	nextIndex, nextPid := s.nextIndex, s.nextPid
	s.mu.Unlock()
	disk := &diskSnapshot{
		Version:    snapshotVersion,
		Seed:       s.cfg.Seed,
		Mode:       s.modeString(),
		HeapLevels: s.cfg.HeapLevels,
		Procs:      s.procsTotal,
		Pids:       s.peer.Me().Pids,
		NextIndex:  nextIndex,
		NextPid:    nextPid,
		Member:     snap,
		Peer:       ps,
		Book:       s.peer.Book(),
		SeqCeiling: seqCeiling,
		Sessions:   sessImgs,
	}
	if err := writeSnapshot(s.cfg.StateDir, disk); err != nil {
		return err
	}
	s.peer.ReleaseAcks(ps.Recv)
	s.lastSnapStats = snap.Stats()
	s.snapCount++
	// The snapshot now covers every journal record before the captured
	// boundary: drop that prefix.
	if err := s.dur.truncatePrefix(journalOff); err != nil {
		s.logf("server[%d]: compacting operation journal: %v", s.peer.Me().Index, err)
	}
	return nil
}

// SnapshotInfo reports how many snapshots have been durably written and
// the in-flight operation summary of the newest one. Tests use it to
// arrange a kill with a non-empty combiner residual on disk.
func (s *Server) SnapshotInfo() (count int64, stats core.SnapshotStats) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapCount, s.lastSnapStats
}

func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	every := s.cfg.SnapshotEvery
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapQuit:
			return
		case <-t.C:
			if err := s.SnapshotNow(); err != nil && !errors.Is(err, core.ErrNotQuiescent) {
				s.logf("server[%d]: snapshot failed: %v", s.peer.Me().Index, err)
			}
		}
	}
}

// ErrFinalSnapshotSkipped reports a graceful shutdown that could not
// take its final snapshot within the retry budget (the member never
// became churn-quiescent): the state on disk is the last periodic
// snapshot plus the operation journal, and the tail since then is
// recovered through peer replay on restart — nothing is lost, but the
// restart will replay more.
var ErrFinalSnapshotSkipped = errors.New("server: final snapshot skipped (member not quiescent within the retry budget)")

// finalSnapshot takes the shutdown snapshot, retrying ErrNotQuiescent
// with a short bounded backoff: a shutdown during churn or mid-wave
// traffic usually becomes quiescent within a few intervals, and silently
// settling for the stale periodic snapshot would discard the latest
// state from the fast path for no reason. It returns
// ErrFinalSnapshotSkipped once the budget is exhausted.
func (s *Server) finalSnapshot() error {
	backoff := 5 * time.Millisecond
	deadline := time.Now().Add(time.Second)
	for {
		err := s.SnapshotNow()
		if err == nil || !errors.Is(err, core.ErrNotQuiescent) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %v", ErrFinalSnapshotSkipped, err)
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// startRestore rebuilds the member from a fail-stop snapshot: same index,
// same process IDs, restored DHT fragment, wave buffers and stack
// combiner residual, next boot epoch. Journaled client operations the
// snapshot does not cover are re-submitted under their original request
// IDs — buffered ones before the transport starts, the rest when their
// node re-fires the wave their record names — so the re-executed
// interval reproduces the crashed incarnation's waves and every
// mid-flight operation completes exactly once. With Config.Join set it
// announces its current address through the seed's rejoin handshake so
// the cluster re-routes to it; without, it relies on the snapshotted
// address book still being accurate (a restart on the same addresses,
// e.g. the seed member itself).
//
//skueue:snapshot-restore Server
//skueue:owned-by startup -- runs before the transport starts; no other goroutine can see the server yet
func (s *Server) startRestore(disk *diskSnapshot, journalRecs []journalRecord) error {
	s.cfg.Seed = disk.Seed
	s.adoptMode(disk.Mode, disk.HeapLevels)
	s.procsTotal = disk.Procs
	s.peer = tcp.New(s.peerOptions(disk.Member.Index, disk.Pids, disk.Peer.Boot+1))
	s.peer.RestoreState(disk.Peer)
	s.peer.SetBook(disk.Book)
	// The snapshotted book carries our pre-crash address; re-merge the
	// current one so the entry we gossip is the live listener.
	s.peer.AddMember(s.peer.Me())
	cl, err := core.RestoreMember(s.coreConfig(disk.Procs), disk.Member, s.peer)
	if err != nil {
		return err
	}
	s.cl = cl
	s.nextIndex, s.nextPid = disk.NextIndex, disk.NextPid
	s.wireCallbacks()

	// Re-submit journaled operations past the snapshot's cut. The runner
	// has not started, so direct cluster access is safe here.
	waves := make(map[transport.NodeID]int64, len(disk.Member.Nodes))
	for _, img := range disk.Member.Nodes {
		waves[img.Self.ID] = img.WaveSeq
	}
	if s.plan, err = buildReplayPlan(journalRecs, disk.Member.ReqSeq, waves); err != nil {
		return err
	}
	for _, rec := range s.plan.fires {
		s.cl.ScriptFire(rec.Node, rec.Wave, rec.Folded)
	}
	for _, e := range disk.Peer.Recv {
		if e.Index != disk.Member.Index {
			s.replayPeers = append(s.replayPeers, e.Index)
		}
	}
	s.restoreSessions(disk.Sessions, journalRecs)
	// Skip the request counter past EVERY journaled identity first —
	// including operations held back for their wave boundaries — so a
	// client submitting before the held groups drain can never be issued
	// a request ID a journaled operation still owns. The lease ceilings
	// (journal records and the snapshot's capture) go further: past every
	// sequence the crashed incarnation could have issued at all, durable
	// record or not.
	for _, rec := range journalRecs {
		switch rec.Kind {
		case recOp:
			s.cl.AdvanceReqSeq(core.ReqIDSeq(rec.ReqID))
		case recLease:
			s.cl.AdvanceReqSeq(rec.Ceiling)
		}
	}
	s.cl.AdvanceReqSeq(disk.SeqCeiling)
	for _, rec := range s.plan.immediate {
		s.cl.Inject(rec.Node, rec.op())
	}
	if n := len(s.plan.immediate); n > 0 || s.plan.pending() > 0 {
		s.logf("server[%d]: re-submitted %d journaled operations, %d held for wave boundaries",
			disk.Member.Index, n, s.plan.pending())
	}

	if s.cfg.Join != "" && disk.Member.Index != 0 {
		ack, err := s.askSeed(wire.CliJoin{
			Addr:   s.lis.Addr().String(),
			Rejoin: true,
			Index:  disk.Member.Index,
			Pids:   disk.Pids,
		})
		if err != nil {
			return fmt.Errorf("server: announcing restart: %w", err)
		}
		s.peer.SetBook(ack.Book)
		s.peer.AddMember(s.peer.Me())
	}
	s.logf("server[%d]: restored from snapshot (boot %d, %d completions)",
		disk.Member.Index, disk.Peer.Boot+1, len(disk.Member.History))
	return nil
}
