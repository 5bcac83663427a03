package core

import (
	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/fixpoint"
	"skueue/internal/ldb"
	"skueue/internal/transport"
)

// aggregateMsg carries a combined batch one hop up the aggregation tree
// (Stage 1, Algorithm 1: AGGREGATE). WaveSeq is the sender's fire
// counter: the parent echoes it in the matching serveMsg, which is how the
// sender tells which of its waves in flight a serve answers, and how a
// rolled-back member recognizes a serve for a wave it no longer has in
// flight (see internal/core/snapshot.go). Prev is the sender's newest
// other wave in flight when it fired this one, 0 if none: the parent folds
// this wave only after Prev (Node.foldable).
type aggregateMsg struct {
	From    ldb.Ref
	B       batch.Batch
	WaveSeq int64
	Prev    int64
}

// serveMsg carries decomposed run assignments one hop down the aggregation
// tree (Stage 3, Algorithm 2: SERVE), echoing the aggregateMsg's WaveSeq.
// A non-zero UpdateEpoch signals the start of that update phase (§IV): no
// node may send new batches until the phase ends. With WaveSeq zero (no
// aggregate ever carries it) the serve answers no batch: it hands the
// epoch to a child the flagged wave did not include (Node.acceptEpoch), and
// Folded is the newest of the child's waves the sender has folded into a
// wave of its own.
type serveMsg struct {
	Assigns     []batch.RunAssign
	UpdateEpoch int64
	WaveSeq     int64
	Folded      int64
}

// declineMsg answers a serve in place of the next (empty) aggregate: the
// sender has been served through wave WaveSeq, holds nothing, and every
// child of its own stands idle. Until its next aggregateMsg arrives the
// parent takes the sender's share of every wave as empty (Node.idleKids).
// Only the readiness hook sends it, so the simulator never sees one.
type declineMsg struct {
	From    ldb.Ref
	WaveSeq int64
}

// routedMsg wraps a payload travelling over the LDB towards the node
// responsible for a key (Lemma 3 routing).
type routedMsg struct {
	RS    ldb.RouteState
	Inner any
}

// putReq inserts an element into the DHT (Stage 4). It carries everything
// the storing node needs to record the enqueue completion (§VII measures
// an ENQUEUE as finished when the element is stored) and, in stack mode,
// to acknowledge completion to the issuer for the stage-4 wait.
type putReq struct {
	Pos    int64
	Ticket int64
	Elem   dht.Element
	Blob   []byte // opaque application payload stored with the element

	Requester transport.NodeID
	ReqID     uint64
	Born      int64
	Client    int32
	LocalSeq  int64
	Value     int64
	// Pri is the element's priority level (heap mode); it rides to the
	// storing node so the enqueue completion records the level the
	// priority checker replays against.
	Pri int32
}

// getReq removes an element from the DHT and delivers it to the requester
// (Stage 4). Bound is the stack ticket bound (§VI); queue gets use 0.
type getReq struct {
	Pos       int64
	Bound     int64
	Requester transport.NodeID
	ReqID     uint64
}

// getReply returns the element of a GET to its requester.
type getReply struct {
	ReqID uint64
	Entry dht.Entry
}

// putAck confirms a PUT was stored; only stack nodes request it (the
// §VI fix: a node must not start the next aggregation phase before all
// its stage-4 operations finished).
type putAck struct {
	ReqID uint64
}

// directMsg carries a DHT payload directly to a known node, bypassing
// routing: used when the responsible node forwards requests into the
// sub-interval of a joining node it relays for (§IV-A).
type directMsg struct {
	Key   fixpoint.Frac
	Inner any
}
