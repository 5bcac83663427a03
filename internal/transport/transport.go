// Package transport defines the message-delivery abstraction the Skueue
// protocol runs on: node addresses, the handler interface a protocol node
// implements, the Context through which a handler talks back to its
// surroundings, and the Network interface every backend provides.
//
// Two backends exist:
//
//   - internal/sim, the deterministic discrete-event simulator: all nodes
//     live in one single-threaded engine, every run is exactly
//     reproducible from its seed, and simulated time advances explicitly.
//     This is the default used by the client layer, the tests and the
//     experiment harness.
//   - internal/transport/tcp, the networked backend: each operating-system
//     process hosts a subset of the nodes, messages between processes
//     travel as length-prefixed gob frames over TCP (see internal/wire),
//     and TIMEOUT is driven by a wall-clock ticker. There TIMEOUT is what
//     the paper makes it — the liveness device, the churn clock and the
//     unit Now() counts — and not the pacing of the protocol: nodes that
//     implement ReadyHandler are also asked whether they can act each
//     time the backend has delivered input to them, so a wave moves at
//     message speed and a node without input falls silent. Per-link
//     sequence numbers, cumulative
//     acknowledgments and reconnect replay make delivery exactly-once
//     across connection resets, realizing the reliable-channel contract
//     on an unreliable network.
//
// The protocol core (internal/core) is written against this package only,
// so the same node code runs unchanged under both backends. The split
// mirrors the paper's model separation: the protocol is specified against
// an abstract reliable message channel (§I-B), and the channel's
// realization — synchronous rounds, bounded asynchrony, or a real network
// — is a property of the run, not of the algorithm.
package transport

import "skueue/internal/xrand"

// NodeID addresses one virtual node. Under the simulator IDs are dense
// spawn-order indices; under the TCP backend they encode the hosting
// process (see internal/transport/tcp), so an ID is routable from any
// member of the cluster.
type NodeID int32

// None is the nil NodeID.
const None NodeID = -1

// Handler is the behaviour of a protocol node. A node is the paper's
// "process executing actions": OnMessage corresponds to processing a
// remote action call from the channel, OnTimeout to the periodic TIMEOUT
// action.
type Handler interface {
	// OnInit runs once when the node is spawned.
	OnInit(ctx *Context)
	// OnMessage processes one delivered message.
	OnMessage(ctx *Context, from NodeID, payload any)
	// OnTimeout runs once per round (synchronous simulation) or
	// periodically (asynchronous simulation, TCP ticker).
	OnTimeout(ctx *Context)
}

// ReadyHandler is an optional extension of Handler: the paper's TIMEOUT
// only guarantees that a node EVENTUALLY acts on its inputs, so a backend
// may also ask a node to act as soon as inputs arrived — and a node asked
// this way may tell its neighbours that it has nothing to send instead of
// sending nothing every TIMEOUT. OnReady must be OnTimeout's send decision
// without its clock — it may run any number of times between two TIMEOUTs,
// must not advance anything TIMEOUT counts, and must do nothing when
// nothing new can be sent, so that a backend calling it after every
// delivery terminates. A backend that offers the hook delivers the frames
// between one pair of nodes in the order they were sent.
//
// The TCP backend calls it for every hosted node after each drained batch
// of runner tasks (never inside one, so a handler or an injecting closure
// always completes before its consequences fire). The simulator never
// calls it: there a round IS the delay of a message between processes, and
// its schedules stay reproducible from the seed.
type ReadyHandler interface {
	OnReady(ctx *Context)
}

// Network is what a backend provides to the nodes it hosts: message
// delivery, node lifecycle, and the ambient clock and randomness. Sends
// are asynchronous and reliable — a sent message is eventually delivered
// exactly once, but with arbitrary delay and in arbitrary order relative
// to other messages (the paper's channel assumption). The simulator gets
// this for free; the TCP backend earns it with per-link acknowledgment
// sequencing and retransmission, and its per-link FIFO ordering is a
// harmless special case. Around a fail-stop member restart the TCP
// backend can additionally deliver a small number of benign duplicates of
// the restarted member's pre-crash messages, which the protocol layer
// detects and drops (see internal/core).
type Network interface {
	// Send delivers payload to the node to, attributed to from. It may be
	// called from within a handler callback or from outside (injection);
	// backends may restrict out-of-callback calls to a specific goroutine
	// (the TCP backend requires its runner — see tcp.Peer.Do).
	Send(from, to NodeID, payload any)
	// Spawn adds a node mid-run and returns its freshly allocated address
	// (used for LEAVE replacements, §IV-B).
	Spawn(h Handler) NodeID
	// Now returns the current time: the round (synchronous sim), the
	// virtual time (asynchronous sim), or the tick count (TCP).
	Now() int64
	// Rand returns the backend's deterministic RNG. Under TCP it is only
	// as deterministic as the schedule feeding it.
	Rand() *xrand.RNG
	// StopTimeouts disables further TIMEOUT callbacks for a node, leaving
	// it able to receive messages (departed nodes that only forward).
	StopTimeouts(id NodeID)
	// Deactivate removes a node entirely; delivering to it afterwards is a
	// protocol error.
	Deactivate(id NodeID)
}

// Registry is implemented by backends that let a host register nodes at
// caller-chosen addresses. The TCP backend uses it for bootstrap wiring:
// the initial ring is computed deterministically from the shared seed, so
// every member must place the virtual nodes of process pid at the globally
// agreed IDs (see internal/core.NodeIDForProcess).
type Registry interface {
	Register(id NodeID, h Handler)
}

// Context is the interface a handler uses to interact with its backend
// during a callback. A Context is bound to one node; backends may reuse
// the same Context for every callback of that node, so handlers should not
// retain it past the callback (though under the single-threaded simulator
// the pointer stays valid, and retaining it for convenience is tolerated).
type Context struct {
	net  Network
	self NodeID
}

// NewContext binds a Context to a node on a backend. It is exported for
// backend implementations; protocol code only ever receives Contexts.
func NewContext(net Network, self NodeID) Context {
	return Context{net: net, self: self}
}

// Self returns the node the current callback belongs to.
func (c *Context) Self() NodeID { return c.self }

// Now returns the current backend time.
func (c *Context) Now() int64 { return c.net.Now() }

// Send enqueues a message to another (or the same) node.
func (c *Context) Send(to NodeID, payload any) { c.net.Send(c.self, to, payload) }

// Spawn creates a new node mid-run (used for LEAVE replacements).
func (c *Context) Spawn(h Handler) NodeID { return c.net.Spawn(h) }

// Rand returns the backend RNG.
func (c *Context) Rand() *xrand.RNG { return c.net.Rand() }

// StopTimeouts disables further TIMEOUT callbacks for a node.
func (c *Context) StopTimeouts(id NodeID) { c.net.StopTimeouts(id) }

// Deactivate removes a node entirely; delivering or sending to it
// afterwards is a protocol error. The paper's leave protocol guarantees no
// such message exists once the drain completes.
func (c *Context) Deactivate(id NodeID) { c.net.Deactivate(id) }

// Network returns the backend hosting this node (engine-level queries in
// tests and metrics).
func (c *Context) Network() Network { return c.net }
