// Package rel exercises the releaseorder analyzer: unjournaled outcome
// releases, the error-notification shape, the journaled-release
// annotation, suppressions, and a journal-nil guard that no longer
// excuses anything.
package rel

//skueue:client-outcome
type CliDone struct {
	Seq   uint64
	ReqID uint64
	//skueue:client-outcome
	Value []byte
	//skueue:client-outcome
	Bottom bool
	//skueue:client-outcome
	Rounds      uint64
	Err         string
	Unreachable bool
}

type session struct{}

//skueue:client-release
func (s *session) send(v any) {}

type journalT struct{}

func (j *journalT) appendDone(done CliDone, rel func(error)) {}

type server struct {
	journal *journalT
	sess    *session
}

func bad(s *server, done CliDone) {
	s.sess.send(done) // want `client outcome released without a dominating journal stage`
}

func badLiteral(s *server) {
	s.sess.send(CliDone{Seq: 1, Value: []byte("x")}) // want `released without a dominating journal stage`
}

func errorShape(s *server, seq uint64) {
	// ok: sets no result-bearing field — a failure notice, not an outcome.
	s.sess.send(CliDone{Seq: seq, Err: "member unreachable", Unreachable: true})
}

func emptyLiteral(s *server) {
	s.sess.send(CliDone{}) // want `released without a dominating journal stage`
}

//skueue:journaled-release
func (s *server) releaseDone(done CliDone) func(error) {
	return func(err error) {
		s.sess.send(done) // ok: runs after the covering fsync
	}
}

func nilGuardIsNoExcuse(s *server, done CliDone) {
	if s.journal == nil {
		s.sess.send(done) // want `released without a dominating journal stage`
		return
	}
	s.journal.appendDone(done, s.releaseDone(done))
}

func fallthroughIsNoExcuse(s *server, done CliDone) {
	if s.journal != nil {
		s.journal.appendDone(done, s.releaseDone(done))
		return
	}
	s.sess.send(done) // want `released without a dominating journal stage`
}

func suppressedRelease(s *server, done CliDone) {
	//skueue:ignore releaseorder -- fixture: test hook, not a client path
	s.sess.send(done)
}

func otherFrames(s *server) {
	s.sess.send(struct{ X int }{1}) // ok: not an outcome frame
}
