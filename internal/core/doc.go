// Package core implements the Skueue protocol itself: the virtual nodes
// of the linearized De Bruijn overlay, the four-stage wave pipeline, and
// the join/leave machinery of the paper.
//
// # Structure
//
// A Cluster owns a set of protocol Nodes — three per process, one per
// virtual node of Definition 2 — and wires them to a transport.Network
// backend that delivers their messages:
//
//   - New builds a simulated deployment: every node of the system lives in
//     one Cluster driven by the deterministic engine of internal/sim.
//   - NewMember builds one operating-system process's share of a
//     networked deployment over internal/transport/tcp; the bootstrap
//     topology is derived from the shared seed, so members wire themselves
//     without coordination, and later arrivals enter through JoinRemote.
//
// Operations enter through one door. A host (the in-process client, a
// networked member's server, a workload generator) names the operation
// first — Cluster.NextReqID reserves the next request ID without moving
// anything, or the host brings a journaled ID back after a restart — then
// registers whatever must be findable under that name, and only then calls
// Cluster.Inject, which buffers the Op record at the client node and
// raises the member-local counter to cover the ID. The order matters in
// stack mode, where a pop injected onto a buffered push completes both
// inside the call (§VI): the completion callback finds the host's entry
// like any other. That same Op record is what the node's pending list,
// the stack combiner, the in-flight wave and the member snapshot hold;
// Enqueue and Dequeue are "inject under NextReqID" for hostless callers.
//
// Node (node.go) is the per-node state machine: TIMEOUT — and, on a backend
// that offers the readiness hook, the arrival of work, with nodes that have
// none standing idle in between — fires the wave stages of Algorithms 1–2:
// buffered operations fold into batches
// (Stage 1, internal/batch), the anchor assigns position intervals
// (Stage 2), assignments decompose back down the aggregation tree
// (Stage 3), and the resulting PUTs and GETs route over the overlay into
// the DHT fragments (Stage 4, internal/ldb + internal/dht).
//
// Churn (churn.go) implements §IV: joins relay through responsible nodes
// until an update phase splices them into the ring; leaves drain, hand
// their state to the left neighbour, and dissolve through replacement
// nodes absorbed triad-atomically.
//
// messages.go declares the wave messages, churn.go the churn control
// messages; wire.go registers them all with the network codec
// (internal/wire) for deployments whose members exchange them over TCP.
//
// Execution histories are recorded per Cluster (per member, in networked
// mode) and checked against the paper's Definition 1 by
// internal/seqcheck; networked deployments merge member histories first.
package core
