package core

import "skueue/internal/wire"

// RegisterWireTypes registers every protocol message that can cross a
// member boundary with the wire codec, so envelopes carrying them encode
// and decode on both ends. The networked transport calls it once at
// startup; the simulator never serializes and does not need it.
//
// Keep this list in sync with messages.go and the churn control messages
// in churn.go: a type missing here fails loudly ("gob: name not registered
// for interface") the first time it crosses the wire.
func RegisterWireTypes() {
	// Wave pipeline (Stages 1-4).
	wire.Register(aggregateMsg{})
	wire.Register(serveMsg{})
	wire.Register(declineMsg{})
	wire.Register(routedMsg{})
	wire.Register(directMsg{})
	wire.Register(putReq{})
	wire.Register(getReq{})
	wire.Register(getReply{})
	wire.Register(putAck{})
	wire.Register(rejectBatch{})

	// Churn: join side (§IV-A).
	wire.Register(joinReq{})
	wire.Register(adoptMsg{})
	wire.Register(transferCmd{})
	wire.Register(handoverMsg{})
	wire.Register(migrateEntry{})
	wire.Register(migrateParked{})
	wire.Register(setNeighbors{})
	wire.Register(setPred{})
	wire.Register(introAck{})
	wire.Register(sibHello{})
	wire.Register(ringHello{})
	wire.Register(updateAck{})
	wire.Register(updateOver{})

	// Churn: leave side (§IV-B).
	wire.Register(leavePermissionReq{})
	wire.Register(leaveGrant{})
	wire.Register(leaveHandoff{})
	wire.Register(redirectMsg{})
	wire.Register(absorbMsg{})
	wire.Register(absorbAck{})
	wire.Register(dissolveQuery{})
	wire.Register(dissolveReply{})
	wire.Register(phasePassed{})
	wire.Register(anchorWalk{})
}
