// Package sim is a deterministic discrete-event simulator for the two
// message-passing models of the paper (§I-B):
//
//   - the synchronous model used for the runtime analysis and the
//     evaluation: time proceeds in rounds, every message sent between
//     processes in round i is delivered in round i+1, and every node
//     executes its TIMEOUT action once per round;
//   - the fully asynchronous model the correctness proofs assume: every
//     message experiences an independent, arbitrary (bounded here, but
//     configurable) delay, so messages can outrun each other (non-FIFO),
//     and TIMEOUT fires periodically per node with random jitter.
//
// The model times the messages processes exchange, and a process emulates
// several virtual nodes (§II-A). Colocate makes such nodes one site: in the
// synchronous model a message between two nodes of a site is delivered in
// the round it was sent, and the site runs TIMEOUT in the order given. The
// asynchronous model keeps its adversarial delay on every edge.
//
// In both models messages are never lost and never duplicated (the paper's
// channel assumption); the engine checks this with internal accounting.
// All scheduling randomness derives from one seed, so every run is exactly
// reproducible.
//
// The engine is the in-memory implementation of transport.Network — the
// deterministic default backend; internal/transport/tcp is the networked
// one. The node-facing vocabulary (NodeID, Handler, Context) lives in
// internal/transport and is aliased here for convenience.
package sim

import (
	"container/heap"
	"fmt"
	"slices"
	"strings"

	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// NodeID identifies a simulated node. IDs are dense indices assigned in
// spawn order.
type NodeID = transport.NodeID

// None is the nil NodeID.
const None = transport.None

// Handler is the behaviour of a simulated node; see transport.Handler.
type Handler = transport.Handler

// Context is the handler-to-backend interface; see transport.Context.
type Context = transport.Context

// Config configures an Engine.
type Config struct {
	Seed int64
	// Async selects the asynchronous scheduler. Default is synchronous.
	Async bool
	// MaxDelay (async only) is the maximum message delay; each message is
	// delayed uniformly in [1, MaxDelay]. Defaults to 8.
	MaxDelay int
	// TimeoutEvery (async only) is the maximum gap between consecutive
	// TIMEOUT firings of a node; each gap is uniform in [1, TimeoutEvery].
	// Defaults to 4.
	TimeoutEvery int
	// ShuffleTimeouts (sync only) randomizes the per-round order in which
	// sites execute TIMEOUT; the nodes of a site keep their Colocate order.
	// Delivery order between sites is always shuffled. Shuffling timeouts
	// costs a permutation per round; tests enable it to widen schedule
	// coverage, large benchmarks leave it off.
	ShuffleTimeouts bool
	// Shape is an optional WAN delivery profile. When enabled, every
	// message (synchronous: every message between sites) is charged extra
	// whole-round delay sampled from the profile: synchronous sends land
	// extra rounds late (via the event heap instead of the next-round
	// batch), asynchronous sends add the extra to their native random
	// delay. The zero Shape keeps the classic models.
	Shape transport.Shape
}

// Stats carries engine-level accounting. MessagesSent and
// MessagesDelivered count every message; LocalDelivered counts those
// delivered within a site, in the round they were sent.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	LocalDelivered    int64
	TimeoutsRun       int64
	Spawned           int64
}

// maxSiteDrain bounds the in-site messages one callback may set off within
// a round. Sibling nodes that answer each other forever would otherwise
// hang the round instead of failing it.
const maxSiteDrain = 1 << 16

type message struct {
	from, to NodeID
	payload  any
	seq      uint64
}

type event struct {
	at   int64
	tie  uint64 // random tiebreak among same-time events
	seq  uint64 // creation order, final tiebreak for determinism
	kind uint8  // 0 = message, 1 = timeout
	msg  message
	node NodeID // timeout target
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type nodeSlot struct {
	h        Handler
	active   bool
	timeouts bool
	site     int32 // index into Engine.sites
	// ctx is the node's reusable callback context; binding it once per
	// node keeps delivery allocation-free.
	ctx Context
}

// Engine runs a set of nodes under one of the two schedulers.
type Engine struct {
	cfg   Config
	rng   *xrand.RNG
	nodes []nodeSlot
	// sites lists every node once, grouped by site, each site in its
	// TIMEOUT order; a node nobody colocated is a site of its own.
	sites [][]NodeID
	now   int64
	// inRound is set while stepSync runs: only a message sent in a round
	// can be delivered in it.
	inRound bool
	// synchronous queues: messages awaiting delivery next round, and
	// in-site messages awaiting delivery once the running callback returns.
	next  []message
	local []message
	// asynchronous event heap.
	events eventHeap
	// messages in flight (both models).
	inFlight int64
	stats    Stats
	seq      uint64
}

var _ transport.Network = (*Engine)(nil)
var _ transport.Registry = (*Engine)(nil)

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 8
	}
	if cfg.TimeoutEvery <= 0 {
		cfg.TimeoutEvery = 4
	}
	return &Engine{cfg: cfg, rng: xrand.New(cfg.Seed)}
}

// Spawn adds a node and runs its OnInit. It may be called before the run
// starts or from within any handler callback.
func (e *Engine) Spawn(h Handler) NodeID {
	id := NodeID(len(e.nodes))
	e.nodes = append(e.nodes, nodeSlot{h: h, active: true, timeouts: true, site: int32(len(e.sites))})
	e.nodes[id].ctx = transport.NewContext(e, id)
	e.sites = append(e.sites, []NodeID{id})
	e.stats.Spawned++
	if e.cfg.Async {
		e.scheduleTimeout(id)
	}
	h.OnInit(&e.nodes[id].ctx)
	return id
}

// Register places a node at a caller-chosen address (transport.Registry).
// The simulator allocates addresses densely itself, so registration is
// only valid for the next free index; it exists to satisfy backends-agnostic
// bootstrap code paths in tests.
func (e *Engine) Register(id NodeID, h Handler) {
	if int(id) != len(e.nodes) {
		panic(fmt.Sprintf("sim: Register(%d) out of spawn order (next is %d)", id, len(e.nodes)))
	}
	e.Spawn(h)
}

// Colocate makes the given nodes one site: the virtual nodes one process
// emulates. In the synchronous model a message between two of them is
// delivered in the round it was sent — after the sending callback returns,
// never nested, in the order sent — and is never shaped; a self-send still
// waits for the next round. The site runs TIMEOUT in the order of ids, each
// node's in-site messages delivered before the next node's turn, so ids
// list children before parents for an aggregate to climb the site in one
// round. Each node must still be a site of its own. The asynchronous model
// ignores sites. Call it between rounds, not from a callback.
func (e *Engine) Colocate(ids ...NodeID) {
	if e.inRound {
		panic("sim: Colocate called within a round")
	}
	lo := int32(len(e.sites))
	for i, id := range ids {
		if id < 0 || int(id) >= len(e.nodes) {
			panic(fmt.Sprintf("sim: Colocate(%v): no node %d", ids, id))
		}
		s := e.nodes[id].site
		if len(e.sites[s]) != 1 || slices.Contains(ids[:i], id) {
			panic(fmt.Sprintf("sim: Colocate(%v): node %d is already colocated", ids, id))
		}
		lo = min(lo, s)
	}
	// The new site takes the place of the earliest of the nodes' own
	// sites, and the later ones close up: only sites from there on are
	// renumbered, which for nodes just spawned is the tail.
	site, placed := slices.Clone(ids), false
	sites := e.sites[:lo]
	for _, members := range e.sites[lo:] {
		if len(members) == 1 && slices.Contains(ids, members[0]) {
			if placed {
				continue
			}
			members, placed = site, true
		}
		for _, id := range members {
			e.nodes[id].site = int32(len(sites))
		}
		sites = append(sites, members)
	}
	e.sites = sites
}

// Now returns the current round (synchronous) or virtual time (async).
func (e *Engine) Now() int64 { return e.now }

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// InFlight returns the number of sent-but-undelivered messages.
func (e *Engine) InFlight() int { return int(e.inFlight) }

// NumNodes returns the number of nodes ever spawned.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Active reports whether the node receives messages.
func (e *Engine) Active(id NodeID) bool {
	return id >= 0 && int(id) < len(e.nodes) && e.nodes[id].active
}

// Handler returns the handler of a node (for test inspection).
func (e *Engine) Handler(id NodeID) Handler { return e.nodes[id].h }

// Rand exposes the engine RNG for workload generators that must share the
// deterministic schedule.
func (e *Engine) Rand() *xrand.RNG { return e.rng }

// Send delivers a message between nodes (transport.Network). Called from
// outside any handler it is an injection (e.g. a freshly joining process
// contacting a member); handler sends arrive here through the Context.
func (e *Engine) Send(from, to NodeID, payload any) {
	e.send(from, to, payload)
}

// Inject is a readability alias of Send for out-of-band sends.
func (e *Engine) Inject(from, to NodeID, payload any) {
	e.send(from, to, payload)
}

// StopTimeouts disables further TIMEOUT callbacks for a node, leaving it
// able to receive messages (used for departed nodes that only forward).
func (e *Engine) StopTimeouts(id NodeID) { e.nodes[id].timeouts = false }

// Deactivate removes a node entirely; delivering or sending to it
// afterwards is a protocol error and panics. The paper's leave protocol
// guarantees no such message exists once the drain completes.
func (e *Engine) Deactivate(id NodeID) { e.nodes[id].active = false }

func (e *Engine) scheduleTimeout(id NodeID) {
	gap := int64(1 + e.rng.Intn(e.cfg.TimeoutEvery))
	e.seq++
	heap.Push(&e.events, event{
		at: e.now + gap, tie: e.rng.Uint64(), seq: e.seq, kind: 1, node: id,
	})
}

func (e *Engine) send(from, to NodeID, payload any) {
	if to < 0 || int(to) >= len(e.nodes) {
		panic(fmt.Sprintf("sim: send to invalid node %d from %d at t=%d", to, from, e.now))
	}
	if !e.nodes[to].active {
		panic(fmt.Sprintf("sim: send to deactivated node %d from %d at t=%d (message would be lost)", to, from, e.now))
	}
	e.stats.MessagesSent++
	e.inFlight++
	e.seq++
	m := message{from: from, to: to, payload: payload, seq: e.seq}
	if e.inRound && from != to && from >= 0 && e.nodes[from].site == e.nodes[to].site {
		e.local = append(e.local, m)
		return
	}
	var extra int64
	if e.cfg.Shape.Enabled() {
		extra = e.cfg.Shape.Rounds(e.rng)
	}
	if e.cfg.Async {
		delay := int64(1+e.rng.Intn(e.cfg.MaxDelay)) + extra
		heap.Push(&e.events, event{at: e.now + delay, tie: e.rng.Uint64(), seq: e.seq, kind: 0, msg: m})
	} else if extra > 0 {
		// A shaped synchronous message misses its round-(i+1) slot and is
		// parked on the event heap; stepSync drains due events into the
		// round's delivery batch.
		heap.Push(&e.events, event{at: e.now + 1 + extra, tie: e.rng.Uint64(), seq: e.seq, kind: 0, msg: m})
	} else {
		e.next = append(e.next, m)
	}
}

func (e *Engine) deliver(m message) {
	slot := &e.nodes[m.to]
	if !slot.active {
		panic(fmt.Sprintf("sim: message from %d delivered to deactivated node %d at t=%d", m.from, m.to, e.now))
	}
	e.inFlight--
	e.stats.MessagesDelivered++
	slot.h.OnMessage(&slot.ctx, m.from, m.payload)
}

func (e *Engine) timeout(id NodeID) {
	slot := &e.nodes[id]
	if !slot.active || !slot.timeouts {
		return
	}
	e.stats.TimeoutsRun++
	slot.h.OnTimeout(&slot.ctx)
}

// Step advances the simulation: one full round in the synchronous model,
// one event in the asynchronous model. It reports whether anything can
// still happen (async: events remain; sync: always true, since timeouts
// recur every round).
func (e *Engine) Step() bool {
	if e.cfg.Async {
		return e.stepAsync()
	}
	e.stepSync()
	return true
}

func (e *Engine) stepSync() {
	e.now++
	e.inRound = true
	defer func() { e.inRound = false }()
	// Deliver every message sent between sites in the previous round, in
	// random order (the channel is a set: arbitrary processing order,
	// non-FIFO).
	batch := e.next
	e.next = nil
	// Shaped messages whose delay has elapsed rejoin the round's batch
	// (the heap holds only kind-0 events in the synchronous model).
	for len(e.events) > 0 && e.events[0].at <= e.now {
		batch = append(batch, heap.Pop(&e.events).(event).msg)
	}
	e.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	for _, m := range batch {
		e.deliver(m)
		e.drainSite()
	}
	// Then every site runs TIMEOUT once per node, in its own order.
	if e.cfg.ShuffleTimeouts {
		for _, s := range e.rng.Perm(len(e.sites)) {
			e.timeoutSite(e.sites[s])
		}
	} else {
		for _, site := range e.sites {
			e.timeoutSite(site)
		}
	}
}

// TimeoutLast moves node id to the end of its site's TIMEOUT order, the
// others keeping theirs: the node the rest of the site reports to may change
// at run time. A node that is a site of its own, or last already, stays as
// it is. It may be called from a callback: a site that is running its
// TIMEOUTs in this round keeps the order it started with.
func (e *Engine) TimeoutLast(id NodeID) {
	s := e.nodes[id].site
	site := e.sites[s]
	if site[len(site)-1] == id {
		return
	}
	order := make([]NodeID, 0, len(site))
	for _, x := range site {
		if x != id {
			order = append(order, x)
		}
	}
	e.sites[s] = append(order, id)
}

func (e *Engine) timeoutSite(site []NodeID) {
	for _, id := range site {
		e.timeout(id)
		e.drainSite()
	}
}

// drainSite delivers, in the order sent, the in-site messages the callback
// that just returned set off, and those they set off in turn.
func (e *Engine) drainSite() {
	for i := 0; i < len(e.local); i++ {
		if i == maxSiteDrain {
			panic(fmt.Sprintf("sim: %d in-site messages from one callback at t=%d; the last were %s", i, e.now, payloadTypes(e.local[i-8:i])))
		}
		e.stats.LocalDelivered++
		e.deliver(e.local[i])
	}
	clear(e.local)
	e.local = e.local[:0]
}

// payloadTypes names the payload types of msgs, in order.
func payloadTypes(msgs []message) string {
	var b strings.Builder
	for i, m := range msgs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%T %d→%d", m.payload, m.from, m.to)
	}
	return b.String()
}

func (e *Engine) stepAsync() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	if ev.at > e.now {
		e.now = ev.at
	}
	switch ev.kind {
	case 0:
		e.deliver(ev.msg)
	case 1:
		if e.nodes[ev.node].active {
			e.timeout(ev.node)
			if e.nodes[ev.node].timeouts {
				e.scheduleTimeout(ev.node)
			}
		}
	}
	return true
}

// Run advances the simulation until limit rounds (sync) or limit time
// units (async) have elapsed, or — async only — no events remain.
func (e *Engine) Run(limit int64) {
	target := e.now + limit
	for e.now < target {
		if !e.Step() {
			return
		}
	}
}

// RunUntil advances the simulation until cond returns true or maxTime
// elapses. It returns whether cond was met. cond is evaluated after each
// round (sync) or each event (async).
func (e *Engine) RunUntil(cond func() bool, maxTime int64) bool {
	target := e.now + maxTime
	for e.now < target {
		if cond() {
			return true
		}
		if !e.Step() {
			return cond()
		}
	}
	return cond()
}
