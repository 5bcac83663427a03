package server

import (
	"sort"
	"sync"

	"skueue/internal/wire"
)

// durSession is one durable client session at its owning member: the
// dedupe table for re-presented operations (ops), the journaled outcomes
// retained for redelivery until the client acknowledges them (outcomes),
// the delivered-outcome cursor (acked), and the currently attached
// connection, nil while the client is disconnected. All fields are
// guarded by Server.mu; outcome delivery itself goes through the
// attached session's writer like any other frame.
//
//skueue:snapshot-state sessionImage
type durSession struct {
	id string
	//skueue:guarded-by Server.mu
	acked uint64
	// ops maps in-flight per-session sequences to their request IDs: a
	// re-presented operation found here is already executing and needs no
	// second injection.
	//
	//skueue:guarded-by Server.mu
	ops map[uint64]uint64
	// outcomes retains completed operations' CliDone frames by
	// per-session sequence. Entries are inserted when the outcome record
	// is STAGED (on the runner, so a snapshot capture on the same
	// goroutine can never miss one inside its journal cut) and pruned
	// when the client's cursor passes them; redelivery to a resuming
	// connection runs a journal barrier first, so nothing leaves before
	// its record is durable.
	//
	//skueue:guarded-by Server.mu
	outcomes map[uint64]wire.CliDone
	// cur is the attached connection; a fresh Hello for the same session
	// detaches (and closes) the previous one.
	//
	//skueue:guarded-by Server.mu
	//skueue:ephemeral -- attached connection; a resuming client re-attaches with a fresh Hello
	cur *session
	// journaled marks the session's own journal record staged (ahead of
	// its first op record); sessions restored from disk count as
	// journaled — the snapshot or the surviving journal prefix is their
	// durable record.
	//
	//skueue:guarded-by Server.mu
	journaled bool
}

// sessionImage is a durSession inside a snapshot.
type sessionImage struct {
	ID       string
	Acked    uint64
	Ops      map[uint64]uint64
	Outcomes map[uint64]wire.CliDone
}

// session is one remote client connection; a dedicated writer goroutine
// keeps protocol callbacks from blocking on slow clients.
type session struct {
	conn *wire.Conn
	out  chan any
	quit chan struct{}
	kill sync.Once
}

// send hands a frame to the session writer without ever blocking the
// caller: completion callbacks run on the transport's runner goroutine,
// which must not stall on one slow client. A client that lets the buffer
// fill (it is not reading responses) loses its connection instead of
// freezing the member.
//
//skueue:client-release
//skueue:wire-payload
func (s *session) send(v any) {
	select {
	case s.out <- v:
	case <-s.quit:
	default:
		s.kill.Do(func() { s.conn.Close() })
	}
}

// restoreSessions rebuilds the durable session table from the snapshot's
// session images plus the journal records past its cut: session records
// re-create sessions the snapshot predates, op records re-register the
// in-flight dedupe entries, and done records retire ops into the
// retention map (the crashed incarnation staged — and possibly released
// — those outcomes; a resuming client must receive the identical frame,
// not a re-execution). Runs before the transport starts, so no locking
// is needed; restored sessions count as journaled (their record is the
// snapshot itself or the surviving journal prefix).
//
//skueue:snapshot-restore durSession
//skueue:owned-by startup -- runs before the transport starts; no other goroutine can see the session table yet
func (s *Server) restoreSessions(images []sessionImage, recs []journalRecord) {
	ref := make(map[uint64]inflight) // reqID -> session/seq, for done records
	ensure := func(id string) *durSession {
		if sd := s.sessions[id]; sd != nil {
			return sd
		}
		sd := newDurSession(id)
		sd.journaled = true
		s.sessions[id] = sd
		return sd
	}
	for _, img := range images {
		sd := ensure(img.ID)
		sd.acked = img.Acked
		for cliSeq, reqID := range img.Ops {
			sd.ops[cliSeq] = reqID
			ref[reqID] = inflight{sd: sd, seq: cliSeq}
		}
		for cliSeq, done := range img.Outcomes {
			sd.outcomes[cliSeq] = done
		}
	}
	for _, rec := range recs {
		switch rec.Kind {
		case recSession:
			ensure(rec.Sess)
		case recOp:
			if rec.Sess == "" {
				continue
			}
			sd := ensure(rec.Sess)
			sd.ops[rec.CliSeq] = rec.ReqID
			ref[rec.ReqID] = inflight{sd: sd, seq: rec.CliSeq}
		case recDone:
			r, ok := ref[rec.ReqID]
			if !ok {
				continue // ephemeral operation
			}
			delete(r.sd.ops, r.seq)
			r.sd.outcomes[r.seq] = rec.Done
		}
	}
	sessions, retained, pending := 0, 0, 0
	for _, sd := range s.sessions {
		for cliSeq := range sd.outcomes {
			if cliSeq <= sd.acked {
				delete(sd.outcomes, cliSeq)
			}
		}
		for cliSeq, reqID := range sd.ops {
			if _, done := sd.outcomes[cliSeq]; done || cliSeq <= sd.acked {
				delete(sd.ops, cliSeq)
				continue
			}
			s.ops[reqID] = inflight{sd: sd, seq: cliSeq}
		}
		sessions++
		retained += len(sd.outcomes)
		pending += len(sd.ops)
	}
	if sessions > 0 {
		s.logf("server[%d]: restored %d client sessions (%d retained outcomes, %d in flight)",
			s.peer.Me().Index, sessions, retained, pending)
	}
}

func newDurSession(id string) *durSession {
	return &durSession{
		id:       id,
		ops:      make(map[uint64]uint64),
		outcomes: make(map[uint64]wire.CliDone),
	}
}

// captureSessions deep-copies the durable session table for a snapshot.
// Runs inside the capture's DoSync; s.mu still guards the maps against
// cursor advances racing in from connection handlers.
//
//skueue:snapshot-capture durSession
func (s *Server) captureSessions() []sessionImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) == 0 {
		return nil
	}
	out := make([]sessionImage, 0, len(s.sessions))
	for _, sd := range s.sessions {
		img := sessionImage{
			ID:       sd.id,
			Acked:    sd.acked,
			Ops:      make(map[uint64]uint64, len(sd.ops)),
			Outcomes: make(map[uint64]wire.CliDone, len(sd.outcomes)),
		}
		for cliSeq, reqID := range sd.ops {
			img.Ops[cliSeq] = reqID
		}
		for cliSeq, done := range sd.outcomes {
			img.Outcomes[cliSeq] = done
		}
		out = append(out, img)
	}
	return out
}

// redeliverRetained replays the session's undelivered retained outcomes to
// a freshly attached connection, in per-session sequence order. The
// journal barrier first: outcomes are retained at STAGING time, so an
// entry may not have synced yet — the barrier waits out the writer (any
// entry whose sync failed is withdrawn by its release before the barrier
// returns, and its parked release answered the failure). The client
// dedupes by sequence, so racing a parked release delivering the same
// frame is harmless. Runs on the connection's reader goroutine.
//
//skueue:journaled-release
func (s *Server) redeliverRetained(sd *durSession, sess *session) {
	if err := s.dur.barrier(); err != nil {
		s.logf("server[%d]: session %q resume barrier: %v", s.peer.Me().Index, sd.id, err)
	}
	s.mu.Lock()
	pending := make([]wire.CliDone, 0, len(sd.outcomes))
	for seq, done := range sd.outcomes {
		if seq > sd.acked {
			pending = append(pending, done)
		}
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })
	for _, done := range pending {
		sess.send(done)
	}
}

// sessionAck advances the session's delivered-outcome cursor: every
// retained outcome at or below ack has reached the client (outcome
// delivery is cumulative on the client side), so the member can stop
// retaining them. Piggybacked on every CliEnqueue/CliDequeue and sent
// standalone as CliSessionAck when the client has nothing else to say.
func (s *Server) sessionAck(sd *durSession, ack uint64) {
	if ack == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ack <= sd.acked {
		return
	}
	sd.acked = ack
	for seq := range sd.outcomes {
		if seq <= ack {
			delete(sd.outcomes, seq)
		}
	}
}

// attachSession binds an arriving connection to its durable session,
// creating the session unless the Hello asked for attach-only resume
// (SessionResume with an ID this member does not hold returns nil — the
// client is probing for the owner and must not strand a fresh empty
// session here). A previously attached connection is displaced and
// closed: the ID names one logical client, and its newest connection
// wins. The Hello's cursor is applied before any redelivery.
func (s *Server) attachSession(hello wire.Hello, sess *session) (*durSession, bool) {
	s.mu.Lock()
	sd, known := s.sessions[hello.Session]
	if !known {
		if hello.SessionResume {
			s.mu.Unlock()
			return nil, false
		}
		sd = newDurSession(hello.Session)
		s.sessions[hello.Session] = sd
	}
	prev := sd.cur
	sd.cur = sess
	s.mu.Unlock()
	if prev != nil && prev != sess {
		prev.kill.Do(func() { prev.conn.Close() })
	}
	s.sessionAck(sd, hello.SessionAck)
	return sd, known
}

// sessionHighSeq returns the session's operation-sequence high-water mark
// (HelloAck.SessionSeq): the acked cursor is a floor — every retained
// outcome below it has been discarded — and in-flight ops or retained
// outcomes can sit above it. A resuming client without its own counter
// numbers fresh operations past this mark; anything at or below it would
// be deduplicated as dead history.
func (s *Server) sessionHighSeq(sd *durSession) uint64 {
	if sd == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	high := sd.acked
	for seq := range sd.ops {
		if seq > high {
			high = seq
		}
	}
	for seq := range sd.outcomes {
		if seq > high {
			high = seq
		}
	}
	return high
}

// detachSession clears the session's attached connection when its reader
// exits — unless a newer connection already displaced this one, in which
// case the session is the newcomer's. The session itself, with its
// in-flight operations and retained outcomes, stays until its client
// resumes (or forever: sessions are only bounded by their clients' acks).
func (s *Server) detachSession(sd *durSession, sess *session) {
	if sd == nil {
		return
	}
	s.mu.Lock()
	if sd.cur == sess {
		sd.cur = nil
	}
	s.mu.Unlock()
}
