package core

import "skueue/internal/wire"

// wireTypes is every protocol message that can cross a member boundary.
// Keep it in sync with messages.go and the churn control messages in
// churn.go. A type missing here does not fail loudly: gob refuses to
// encode it, the TCP peer logs "dropping unencodable frame" and drops it
// (TestUnencodableFrameDropsAloneFromBatch), and the cluster wedges
// waiting for the frame. TestWireRoundTrip fails at once when a type here
// has no round-trip row; a type left out of this list entirely shows up
// only as networked tests timing out (TestJoinServer and
// TestReadinessJoinDoesNotSpin for the hello).
var wireTypes = []any{
	// Wave pipeline (Stages 1-4).
	aggregateMsg{},
	serveMsg{},
	declineMsg{},
	routedMsg{},
	directMsg{},
	putReq{},
	getReq{},
	getReply{},
	putAck{},
	rejectBatch{},

	// Churn: join side (§IV-A).
	joinReq{},
	adoptMsg{},
	transferCmd{},
	handoverMsg{},
	migrateEntry{},
	migrateParked{},
	setNeighbors{},
	setPred{},
	introAck{},
	hello{},
	updateAck{},
	updateOver{},

	// Churn: leave side (§IV-B).
	leavePermissionReq{},
	leaveGrant{},
	leaveHandoff{},
	redirectMsg{},
	absorbMsg{},
	absorbAck{},
	dissolveQuery{},
	dissolveReply{},
	phasePassed{},
	anchorWalk{},
}

// RegisterWireTypes registers wireTypes with the wire codec, so envelopes
// carrying them encode and decode on both ends. The networked transport
// calls it once at startup; the simulator never serializes and does not
// need it.
func RegisterWireTypes() {
	for _, v := range wireTypes {
		wire.Register(v)
	}
}
