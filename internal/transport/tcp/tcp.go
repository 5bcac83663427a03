// Package tcp is the networked transport.Network backend: each
// operating-system process runs a Peer hosting a subset of the protocol
// nodes, and messages between members travel as length-prefixed gob
// frames over persistent TCP links (see internal/wire).
//
// # Addressing
//
// NodeIDs are globally routable without coordination:
//
//   - the three virtual nodes of process pid live at IDs 3*pid+kind
//     (internal/core.NodeIDForProcess), and the address book maps pids to
//     members, so any member resolves any bootstrap or joined node;
//   - nodes spawned at runtime (leave replacements) get IDs from the
//     spawning member's reserved range DynBase + Index*DynSpan + i, so the
//     member is recoverable from the ID alone.
//
// # Execution model
//
// One runner goroutine per Peer executes every handler callback, every
// TIMEOUT tick and every injected closure (Do), serializing all access to
// the hosted nodes and their shared member state — the same
// single-threaded discipline a simulated process enjoys, while different
// members run genuinely in parallel. Inbound frames and outbound writes
// are handled by per-connection goroutines that never touch node state.
//
// The protocol is paced by work, not by the clock. After each drained batch
// of runner tasks — delivered frames, local deliveries, injected closures —
// the runner asks every hosted node that implements transport.ReadyHandler
// whether it can act (OnReady), so an aggregate from a child, a serve, an
// acknowledgment that ungates a node or a client injection moves the wave
// at once, and a node with nothing to send says so once to its parent and
// stands idle: an operation costs tree and DHT hops and no tick, and a
// cluster with nothing to do exchanges no frame. The pass runs between
// tasks, never inside one: a closure that reads a node's fire counter,
// records it and injects an operation (the server's submit, which journals
// the wave an operation will ride) sees no wave fire in between. The ticker
// (Options.Tick) keeps what the paper's TIMEOUT is still needed for: the
// first wave after bootstrap and after every update phase, when no node
// stands idle yet; the liveness of nodes that cannot stand idle (a stage-4
// wait, a pending leave); the churn clock and the announcement of join and
// leave levels; and Now(), the count of ticks completions are stamped with,
// which a readiness pass never advances. For an idle cluster a tick is a
// timer wake-up that finds nothing to fire.
//
// # Delivery guarantees
//
// Every link (the directed frame stream from one member to another)
// assigns monotonically increasing sequence numbers to its frames and
// keeps them buffered until the receiver's cumulative acknowledgment
// covers them. Acknowledgments piggyback on reverse-direction traffic
// (wire.Envelope.Ack) and on a standalone wire.Ack frame written on the
// connection's reverse path when the link is otherwise idle. When a
// connection dies — detected at write time or by the reader goroutine —
// the link redials with backoff, learns the receiver's last delivered
// sequence from the HelloAck handshake, and replays every buffered frame
// past it in order; the receiver drops any sequence it has already
// delivered. The result is exactly-once, per-link FIFO delivery across
// arbitrary connection resets, including frames the kernel accepted but
// the network dropped.
//
// Across member crashes the guarantee is pairwise two-sided: each member
// tracks the boot epoch of every sender (wire.Hello.Boot) and resets its
// delivery sequence when the epoch changes, and a member restored from a
// snapshot resumes the receive sequences recorded there (see
// internal/server for the write-ahead snapshot discipline that makes
// acknowledgment release durable). A member that never comes back is
// detected by the give-up timeout (Options.GiveUp): the dialing side
// reports it through Options.OnDown so the hosting layer can fail
// blocked operations instead of stalling forever.
//
// Frames addressed to a pid no member claims yet are parked until an
// address-book update names its host, which covers the join handshake
// races.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"skueue/internal/transport"
	"skueue/internal/wire"
	"skueue/internal/xrand"
)

// Dynamic NodeID layout: IDs below DynBase belong to process triads
// (3*pid+kind); IDs at or above encode the spawning member.
const (
	// DynBase is the first runtime-allocated NodeID; it caps process IDs
	// at DynBase/3 processes per cluster.
	DynBase = 1 << 20
	// DynSpan is the runtime allocation window per member: the number of
	// leave replacements a member can spawn over its lifetime before the
	// range is exhausted (IDs are not recycled; at three per adjacent
	// leave this covers tens of thousands of leaves).
	DynSpan = 1 << 16
)

// Options configures a Peer.
type Options struct {
	// Index is this member's index; it must be unique across the cluster.
	Index int32
	// Addr is the member's advertised listen address (host:port). The
	// listener itself is owned by the caller, which hands inbound peer
	// connections to AcceptPeer.
	Addr string
	// Pids are the process IDs this member hosts.
	Pids []int32
	// Seed seeds the backend RNG.
	Seed int64
	// Tick is the TIMEOUT cadence; default 1ms.
	Tick time.Duration
	// Logf receives diagnostics; default discards.
	Logf func(format string, args ...any)
	// Boot is this member's boot epoch, strictly increasing across
	// restarts of the same member index (default 1). Receivers reset
	// their per-sender delivery sequence when it changes.
	Boot int64
	// AckGate delays acknowledgment release until the hosting layer calls
	// ReleaseAcks (the write-ahead snapshot discipline): delivered frames
	// stay unacknowledged — and thus replayable by their sender — until a
	// durable snapshot covers their effects. Off, deliveries acknowledge
	// immediately.
	AckGate bool
	// GiveUp, when positive, bounds how long a link keeps redialing an
	// unreachable member before declaring it down; OnDown fires once per
	// elapsed GiveUp period while the member stays unreachable.
	GiveUp time.Duration
	// OnDown receives give-up notifications. It runs on a link goroutine
	// and must not block.
	OnDown func(index int32)
	// Shape is an optional WAN delivery profile applied on the receive
	// path: every admitted sequenced frame is released to the runner after
	// a sampled extra delay, FIFO per sender (see shaper). The zero Shape
	// delivers immediately.
	Shape transport.Shape
	// SendGate, when set, interposes on every frame leaving this member
	// for a remote peer: route performs the actual enqueue onto the
	// target link, and the gate must run it exactly once, on the runner
	// goroutine, preserving submission order across all gated sends. The
	// durable server installs one to hold outbound frames until the
	// operation journal is synced past everything staged when the frame
	// was emitted (WAL-before-send): a wave batch may otherwise carry an
	// operation whose journal record a crash then loses, and the restart
	// would replay that wave without the operation — diverging from the
	// shape peers already recorded — while a session client re-presents
	// the officially-never-accepted operation for a second execution.
	// Local deliveries bypass the gate: they cross no member boundary, so
	// a crash erases them together with the records.
	SendGate func(route func())
}

type nodeState struct {
	h transport.Handler
	// ready is h's optional readiness hook, nil when h has none.
	ready    transport.ReadyHandler
	active   bool
	timeouts bool
	ctx      transport.Context
}

// link is the sending side of one directed member-to-member stream. Both
// stages of the outbound pipeline are mutex-guarded slices rather than
// channels: the queue never blocks the runner goroutine however dead the
// target member is, and a state capture (CaptureState) can copy the
// not-yet-delivered frames — queued and unacknowledged alike — without
// draining anything.
//
//skueue:snapshot-state LinkState
type link struct {
	idx  int32
	quit chan struct{}

	// bmu shares rank 60 with Peer.mu: the two are never held together
	// (see route's unlock-before-send comment).
	//
	//skueue:lock 60
	bmu sync.Mutex
	//skueue:guarded-by bmu
	queue []any // accepted, not yet transmitted (unsequenced)
	//skueue:guarded-by bmu
	unacked []any // transmitted with a sequence, awaiting acknowledgment
	//skueue:guarded-by bmu
	//skueue:ephemeral -- per-boot sequence counter; restored frames get fresh sequences under the new epoch
	nextSeq uint64
	// Cumulative-ack intake, coalesced to the maximum seen.
	//
	//skueue:guarded-by bmu
	//skueue:ephemeral -- per-boot acknowledgment cursor; the restore handshake re-establishes it
	pendingAck uint64
	// deadConns records connections whose reader goroutine saw them die,
	// so an idle link still replays frames lost to a reset. A set, not a
	// channel: a dropped notification would leave the link blocked on a
	// dead connection forever.
	//
	//skueue:guarded-by bmu
	//skueue:ephemeral -- live connection bookkeeping; no connection survives a restart
	deadConns map[*wire.Conn]bool

	// notify wakes the link goroutine for new frames, acknowledgments or
	// connection deaths.
	notify chan struct{}
}

// recvState tracks one remote sender. enqueued is the connection-side
// dedupe cursor (highest sequence admitted into the task queue);
// delivered trails it, advanced on the runner goroutine as frames
// actually reach their nodes, so a state capture never records a
// sequence whose effects it does not hold. acked is the highest sequence
// acknowledgment release has reached (== delivered unless AckGate holds
// acks back for the write-ahead snapshot), and lastSent the highest
// acknowledgment actually transmitted.
//
//skueue:snapshot-state RecvEntry
type recvState struct {
	boot     int64
	enqueued uint64
	//skueue:guarded-by Peer.mu
	delivered uint64
	acked     uint64
	//skueue:ephemeral -- transmit-side ack dedupe; the first ack of the new boot re-seeds it
	lastSent uint64
}

// RecvEntry is one sender's durable receive cursor, as captured into and
// restored from a member snapshot.
type RecvEntry struct {
	Index int32
	Boot  int64
	Seq   uint64
}

// LinkState is the not-yet-delivered outbound traffic of one link at
// capture time: every envelope the target member has not durably
// acknowledged. A restored member re-queues them (under fresh sequence
// numbers of its new boot epoch), so a serve or aggregate emitted just
// before the snapshot but swallowed by the crash still reaches its
// destination; the receiving side tolerates the duplicates this can
// produce (see internal/core).
type LinkState struct {
	Index  int32
	Frames []wire.Envelope
}

// PeerState is the transport-level state a member persists: its own boot
// epoch, the runner clock, the dynamic NodeID allocator, the receive
// cursor for every known sender, and the undelivered outbound frames per
// link.
type PeerState struct {
	Boot    int64
	Now     int64
	NextDyn int32
	Recv    []RecvEntry
	Links   []LinkState
}

// Peer is one cluster member's transport endpoint.
//
//skueue:snapshot-state PeerState
type Peer struct {
	opts Options
	//skueue:ephemeral -- fault-injection randomness, reseeded per boot; determinism is per-run, not cross-restart
	rng *xrand.RNG

	// Runner-confined state (nodes, clock, dynamic allocator). Register is
	// additionally allowed before Start, when no runner exists yet.
	//
	//skueue:ephemeral -- node registry; the hosting layer re-registers every node after restore
	nodes map[transport.NodeID]*nodeState
	//skueue:ephemeral -- tick iteration order, rebuilt by re-registration
	order     []*nodeState // nodes that receive TIMEOUT, in registration order (tick and readiness iteration)
	now       int64
	nextDyn   int32
	heldLocal map[transport.NodeID][]wire.Envelope
	// localPending counts local deliveries sitting in the task queue. A
	// state capture refuses while any are in flight: a local send crosses
	// no link, so nothing would replay it if the snapshot cut fell between
	// the send and its delivery.
	localPending int

	// Task queue feeding the runner.
	//
	//skueue:lock 70
	//skueue:ephemeral -- mutex; its zero value is ready after restore
	taskMu sync.Mutex
	//skueue:guarded-by taskMu
	//skueue:ephemeral -- pending runner closures; a capture refuses while local work is queued (localPending)
	tasks []func()
	//skueue:ephemeral -- runner wake channel, recreated by Start
	wake chan struct{}

	// Address book, links and receive cursors (shared with connection
	// goroutines). Shares rank 60 with link.bmu: never hold both.
	//
	//skueue:lock 60
	mu sync.Mutex
	//skueue:guarded-by mu
	//skueue:ephemeral -- address book; a stale book could regress addresses, and the seed re-broadcasts on rejoin
	book map[int32]wire.MemberInfo
	//skueue:guarded-by mu
	//skueue:ephemeral -- pid routing cache, rebuilt from the re-broadcast book
	pidToMember map[int32]int32
	//skueue:guarded-by mu
	links map[int32]*link
	//skueue:guarded-by mu
	pendingPid map[int32][]wire.Envelope
	//skueue:guarded-by mu
	recv map[int32]*recvState
	//skueue:guarded-by mu
	//skueue:ephemeral -- WAN-shaping configuration, reapplied by the harness after restore
	shapers map[int32]*shaper
	// fenced records senders whose reconnect replay completed at least
	// once in this boot: a wire.ReplayFence was delivered through the
	// ordered receive path, so every frame the sender buffered before the
	// fence's connection was established has been processed by the runner.
	// Consulted by a restarting member's replay gate (ReplayFenced).
	//
	//skueue:guarded-by mu
	//skueue:ephemeral -- per-boot replay progress; a new boot starts unfenced by definition
	fenced map[int32]bool

	//skueue:ephemeral -- runner lifecycle channel, recreated by Start
	quit chan struct{}
	//skueue:ephemeral -- runner lifecycle channel, recreated by Start
	stopped chan struct{}
	//skueue:ephemeral -- lifecycle flag; a restored peer has not been started yet
	started bool
}

var _ transport.Network = (*Peer)(nil)
var _ transport.Registry = (*Peer)(nil)

// New creates a Peer. Register the bootstrap nodes and seed the address
// book (SetBook) before Start.
func New(opts Options) *Peer {
	if opts.Tick <= 0 {
		opts.Tick = time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Boot <= 0 {
		opts.Boot = 1
	}
	p := &Peer{
		opts:        opts,
		rng:         xrand.New(opts.Seed ^ int64(opts.Index)<<17),
		nodes:       make(map[transport.NodeID]*nodeState),
		heldLocal:   make(map[transport.NodeID][]wire.Envelope),
		wake:        make(chan struct{}, 1),
		book:        make(map[int32]wire.MemberInfo),
		pidToMember: make(map[int32]int32),
		links:       make(map[int32]*link),
		pendingPid:  make(map[int32][]wire.Envelope),
		recv:        make(map[int32]*recvState),
		shapers:     make(map[int32]*shaper),
		fenced:      make(map[int32]bool),
		quit:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	p.AddMember(p.Me())
	return p
}

// Me returns this member's address-book entry.
func (p *Peer) Me() wire.MemberInfo {
	return wire.MemberInfo{Index: p.opts.Index, Addr: p.opts.Addr, Pids: p.opts.Pids}
}

// ---- transport.Network ----

// Send routes a payload to the member hosting the target node; local
// targets are delivered through the task queue, preserving asynchrony.
// Like every node-touching Peer method it must run on the runner
// goroutine (handler callbacks, Do/DoSync closures) or before Start:
// isLocal consults the runner-confined node table.
func (p *Peer) Send(from, to transport.NodeID, payload any) {
	env := wire.Envelope{From: from, To: to, Payload: payload}
	if p.isLocal(to) {
		p.localPending++
		p.Do(func() {
			p.localPending--
			p.deliver(env)
		})
		return
	}
	if p.opts.SendGate != nil {
		p.opts.SendGate(func() { p.route(env) })
		return
	}
	p.route(env)
}

// Spawn registers a runtime-created node under a fresh ID from this
// member's reserved range. Runner goroutine only (handlers, Do closures).
func (p *Peer) Spawn(h transport.Handler) transport.NodeID {
	if p.nextDyn >= DynSpan {
		panic("tcp: dynamic NodeID range exhausted")
	}
	id := transport.NodeID(DynBase + p.opts.Index*DynSpan + p.nextDyn)
	p.nextDyn++
	p.register(id, h)
	return id
}

// Now returns the tick count: the backend clock completions are stamped
// with.
func (p *Peer) Now() int64 { return p.now }

// Rand returns the backend RNG (runner goroutine only).
func (p *Peer) Rand() *xrand.RNG { return p.rng }

// StopTimeouts disables TIMEOUT (and the readiness hook) for a local node,
// which keeps receiving messages: a departed node that only forwards.
func (p *Peer) StopTimeouts(id transport.NodeID) {
	if st, ok := p.nodes[id]; ok && st.timeouts {
		st.timeouts = false
		p.unschedule(st)
	}
}

// Deactivate drops a local node; further deliveries to it are logged and
// discarded (the simulator panics instead, but a networked member cannot
// assume global quiescence). The nodes entry stays: deliver tells a
// deactivated node from a not-yet-registered one by it.
func (p *Peer) Deactivate(id transport.NodeID) {
	if st, ok := p.nodes[id]; ok {
		st.active = false
		p.StopTimeouts(id)
	}
}

// unschedule takes a node out of the tick and readiness iteration, so a
// long-lived member does not walk every departed node and leave
// replacement it ever hosted on every pass. It builds a new slice rather
// than shifting in place: a node stops its own timeouts from inside
// OnTimeout, while tickAll is ranging over the old one.
func (p *Peer) unschedule(st *nodeState) {
	for i, have := range p.order {
		if have == st {
			order := make([]*nodeState, 0, len(p.order)-1)
			order = append(order, p.order[:i]...)
			p.order = append(order, p.order[i+1:]...)
			return
		}
	}
}

// ---- transport.Registry ----

// Register places a node at a fixed ID (bootstrap wiring and joins; see
// core.NodeIDForProcess). Valid before Start or on the runner goroutine.
func (p *Peer) Register(id transport.NodeID, h transport.Handler) {
	p.register(id, h)
}

func (p *Peer) register(id transport.NodeID, h transport.Handler) {
	if _, dup := p.nodes[id]; dup {
		panic(fmt.Sprintf("tcp: node %d registered twice", id))
	}
	st := &nodeState{h: h, active: true, timeouts: true, ctx: transport.NewContext(p, id)}
	st.ready, _ = h.(transport.ReadyHandler)
	p.nodes[id] = st
	p.order = append(p.order, st)
	h.OnInit(&st.ctx)
	if held, ok := p.heldLocal[id]; ok {
		delete(p.heldLocal, id)
		for _, env := range held {
			p.deliver(env)
		}
	}
}

// ---- Runner ----

// Start launches the runner and the TIMEOUT ticker.
func (p *Peer) Start() {
	if p.started {
		return
	}
	p.started = true
	go p.run()
}

// Close stops the runner, the ticker and all links.
func (p *Peer) Close() {
	select {
	case <-p.quit:
		return
	default:
	}
	close(p.quit)
	if p.started {
		<-p.stopped
	}
	p.mu.Lock()
	for _, l := range p.links {
		close(l.quit)
	}
	p.mu.Unlock()
}

// Do schedules fn on the runner goroutine, where it may touch hosted
// nodes, inject requests and call Send/Spawn. It returns immediately.
//
//skueue:runs-on-runner
func (p *Peer) Do(fn func()) {
	p.taskMu.Lock()
	p.tasks = append(p.tasks, fn)
	p.taskMu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// DoSync runs fn on the runner goroutine and waits for it to finish. If
// the peer shuts down before the task runs, DoSync returns without it —
// waiting for the runner to have fully exited first, so fn can no longer
// be running concurrently with the caller.
//
//skueue:runs-on-runner
//skueue:blocking -- waits for the task to finish on the runner; calling it from the runner would self-deadlock
func (p *Peer) DoSync(fn func()) {
	done := make(chan struct{})
	p.Do(func() { defer close(done); fn() })
	select {
	case <-done:
	case <-p.quit:
		if p.started {
			<-p.stopped
		}
		select {
		case <-done:
		default:
		}
	}
}

// run is the runner goroutine: the single thread on which every hosted
// node, handler callback and scheduled task executes. Nothing reachable
// from here may block (see internal/analysis/runnerblock).
//
//skueue:runner
func (p *Peer) run() {
	defer close(p.stopped)
	ticker := time.NewTicker(p.opts.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-ticker.C:
			p.tickAll()
		case <-p.wake:
			p.drainTasks()
		}
	}
}

// drainTasks runs queued tasks until none are left, with a readiness pass
// after each batch: whatever the batch delivered or injected is acted on
// before the runner goes back to sleep. It terminates because a pass only
// queues work (local deliveries) when a node had something new to send.
func (p *Peer) drainTasks() {
	for {
		p.taskMu.Lock()
		tasks := p.tasks
		p.tasks = nil
		p.taskMu.Unlock()
		if len(tasks) == 0 {
			return
		}
		for _, fn := range tasks {
			fn()
		}
		p.readyAll()
	}
}

// readyAll offers every live node its readiness hook (see "Execution
// model"). A node that stopped its timeouts only forwards, and is skipped
// like tickAll skips it.
func (p *Peer) readyAll() {
	for _, st := range p.order {
		if st.timeouts && st.ready != nil {
			st.ready.OnReady(&st.ctx)
		}
	}
}

// tickAll advances the clock and fires TIMEOUT on every live node, then
// drains tasks the timeouts produced.
func (p *Peer) tickAll() {
	p.now++
	for _, st := range p.order {
		if st.timeouts {
			st.h.OnTimeout(&st.ctx)
		}
	}
	p.drainTasks()
}

func (p *Peer) deliver(env wire.Envelope) {
	st, ok := p.nodes[env.To]
	if !ok {
		// A frame can outrun the local registration it depends on (join
		// handshakes); park it until the node appears.
		p.heldLocal[env.To] = append(p.heldLocal[env.To], env)
		p.opts.Logf("tcp[%d]: holding %T for unregistered node %d", p.opts.Index, env.Payload, env.To)
		return
	}
	if !st.active {
		p.opts.Logf("tcp[%d]: dropping %T for deactivated node %d", p.opts.Index, env.Payload, env.To)
		return
	}
	st.h.OnMessage(&st.ctx, env.From, env.Payload)
}

// ---- Addressing ----

func (p *Peer) isLocal(id transport.NodeID) bool {
	if _, ok := p.nodes[id]; ok {
		return true
	}
	idx, ok := p.resolve(id)
	return ok && idx == p.opts.Index
}

// resolve maps a NodeID to the member hosting it.
func (p *Peer) resolve(id transport.NodeID) (int32, bool) {
	if id >= DynBase {
		return (int32(id) - DynBase) / DynSpan, true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.pidToMember[int32(id)/3]
	return idx, ok
}

func (p *Peer) route(env wire.Envelope) {
	idx, ok := p.resolve(env.To)
	if !ok {
		pid := int32(env.To) / 3
		p.mu.Lock()
		p.pendingPid[pid] = append(p.pendingPid[pid], env)
		p.mu.Unlock()
		p.opts.Logf("tcp[%d]: parking %T for unknown pid %d", p.opts.Index, env.Payload, pid)
		return
	}
	p.linkTo(idx).send(env)
}

// ---- Address book ----

// SetBook merges a full address book (bootstrap, hello, join ack).
func (p *Peer) SetBook(ms []wire.MemberInfo) {
	for _, m := range ms {
		p.AddMember(m)
	}
}

// AddMember merges one member into the address book and releases any
// frames parked on its pids.
func (p *Peer) AddMember(m wire.MemberInfo) {
	var release []wire.Envelope
	p.mu.Lock()
	cur, ok := p.book[m.Index]
	if !ok {
		cur = m
	} else {
		if m.Addr != "" {
			cur.Addr = m.Addr
		}
		for _, pid := range m.Pids {
			dup := false
			for _, have := range cur.Pids {
				if have == pid {
					dup = true
					break
				}
			}
			if !dup {
				cur.Pids = append(cur.Pids, pid)
			}
		}
	}
	p.book[m.Index] = cur
	for _, pid := range cur.Pids {
		p.pidToMember[pid] = m.Index
		if parked := p.pendingPid[pid]; len(parked) > 0 {
			release = append(release, parked...)
			delete(p.pendingPid, pid)
		}
	}
	p.mu.Unlock()
	for _, env := range release {
		p.route(env)
	}
}

// Book returns a sorted copy of the address book.
func (p *Peer) Book() []wire.MemberInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bookLocked()
}

//skueue:locked mu
func (p *Peer) bookLocked() []wire.MemberInfo {
	out := make([]wire.MemberInfo, 0, len(p.book))
	for _, m := range p.book {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// BroadcastBook pushes the current book to every known member, opening
// links as needed (the seed calls it when a member joins or rejoins, so
// everyone learns the newcomer's address before protocol traffic names
// it). Book updates share the links' sequence space, so a broadcast lost
// to a connection reset is replayed like any protocol frame.
func (p *Peer) BroadcastBook() {
	p.mu.Lock()
	book := p.bookLocked()
	p.mu.Unlock()
	for _, m := range book {
		if m.Index == p.opts.Index {
			continue
		}
		p.linkTo(m.Index).send(wire.BookUpdate{Book: book})
	}
}

// ---- Receive cursors and acknowledgments ----

// senderHello records a peer handshake: a changed boot epoch means the
// sender restarted and will number its frames from zero again, so the
// delivery cursors reset. It returns the acknowledgment to hand back in
// the HelloAck — the replay point for the dialer.
func (p *Peer) senderHello(idx int32, boot int64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs := p.recvLocked(idx)
	if rs.boot != boot {
		if rs.boot != 0 {
			p.opts.Logf("tcp[%d]: member %d rebooted (epoch %d -> %d); resetting delivery cursor %d",
				p.opts.Index, idx, rs.boot, boot, rs.delivered)
		}
		rs.boot = boot
		rs.enqueued, rs.delivered, rs.acked, rs.lastSent = 0, 0, 0, 0
	}
	return rs.acked
}

//skueue:locked mu
func (p *Peer) recvLocked(idx int32) *recvState {
	rs, ok := p.recv[idx]
	if !ok {
		rs = &recvState{}
		p.recv[idx] = rs
	}
	return rs
}

// preAdmit decides on the connection goroutine whether a sequenced frame
// from idx is new (admit) or a replay duplicate (drop). Sequences arrive
// in order per link — TCP preserves order within a connection and
// reconnect replay is an in-order suffix — so a cumulative cursor
// suffices. boot is the epoch of the connection's handshake: a frame
// still in flight on a pre-restart connection must not touch the reset
// cursor (the new epoch's handshake already arranged any replay needed),
// so stale-epoch frames are dropped outright.
func (p *Peer) preAdmit(idx int32, boot int64, seq uint64) bool {
	if seq == 0 {
		return true // unsequenced (never produced by current senders)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rs := p.recvLocked(idx)
	if rs.boot != boot {
		return false
	}
	if seq <= rs.enqueued {
		return false
	}
	rs.enqueued = seq
	return true
}

// markDelivered advances the durable receive cursor. It runs on the
// runner goroutine, in the same task as (and ahead of) the frame's node
// delivery, so a snapshot's cursor never exceeds the node state it
// captured. boot guards against a sender reboot racing the task queue.
func (p *Peer) markDelivered(idx int32, boot int64, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs := p.recvLocked(idx)
	if rs.boot != boot {
		return
	}
	if seq > rs.delivered {
		rs.delivered = seq
	}
	if !p.opts.AckGate && rs.delivered > rs.acked {
		rs.acked = rs.delivered
	}
}

// noteReplayFence records that sender idx's reconnect replay drained.
// Runs on the runner goroutine (ordered after every replayed frame's
// delivery task). The boot guard drops a fence still in flight on a
// connection from before the sender's own restart — its replacement
// connection replays again and fences again.
func (p *Peer) noteReplayFence(idx int32, boot int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rs, ok := p.recv[idx]; ok && rs.boot != boot {
		return
	}
	p.fenced[idx] = true
}

// ReplayFenced reports whether every listed sender has completed a
// reconnect replay since this peer booted. A member restoring from a
// fail-stop crash passes the senders its snapshot holds receive cursors
// for: once each has fenced, no pre-crash frame is still in flight
// toward this member, so (together with the core's held-serve drain) new
// client operations can no longer change the shape of a wave the replay
// must reproduce exactly.
func (p *Peer) ReplayFenced(senders []int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, idx := range senders {
		if !p.fenced[idx] {
			return false
		}
	}
	return true
}

// takeAck returns the acknowledgment to piggyback on an outbound frame to
// idx, marking it transmitted so the idle acker stays quiet.
func (p *Peer) takeAck(idx int32) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs, ok := p.recv[idx]
	if !ok {
		return 0
	}
	if rs.acked > rs.lastSent {
		rs.lastSent = rs.acked
	}
	return rs.acked
}

// ackDue reports an acknowledgment that piggybacking has not transmitted
// yet, marking it sent.
func (p *Peer) ackDue(idx int32) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs, ok := p.recv[idx]
	if !ok || rs.acked <= rs.lastSent {
		return 0, false
	}
	rs.lastSent = rs.acked
	return rs.acked, true
}

// noteAckFor feeds a received cumulative acknowledgment to the link
// sending to idx, if one exists.
func (p *Peer) noteAckFor(idx int32, seq uint64) {
	p.mu.Lock()
	l := p.links[idx]
	p.mu.Unlock()
	if l != nil {
		l.noteAck(seq)
	}
}

// ReleaseAcks advances acknowledgment release to the given durable
// receive cursors (write-ahead snapshot discipline, AckGate mode): the
// hosting layer calls it after the snapshot recording these cursors hit
// stable storage. Entries whose boot epoch no longer matches — the sender
// restarted since the capture — are skipped.
func (p *Peer) ReleaseAcks(entries []RecvEntry) {
	p.mu.Lock()
	for _, e := range entries {
		rs, ok := p.recv[e.Index]
		if ok && rs.boot == e.Boot && e.Seq > rs.acked {
			rs.acked = e.Seq
		}
	}
	p.mu.Unlock()
}

// CaptureState snapshots the transport-level member state, including the
// undelivered outbound frames of every link. It must run on the runner
// goroutine (DoSync): the clock and the dynamic allocator are
// runner-confined, and with the runner parked no new sends race the
// capture. It returns nil while frames are parked for unknown pids or
// unregistered local nodes — such frames are delivered-but-held state a
// snapshot cannot represent, and they only exist transiently during join
// handshakes.
//
//skueue:snapshot-capture Peer link recvState
func (p *Peer) CaptureState() *PeerState {
	if len(p.heldLocal) > 0 || p.localPending > 0 {
		return nil
	}
	ps := &PeerState{Boot: p.opts.Boot, Now: p.now, NextDyn: p.nextDyn}
	p.mu.Lock()
	if len(p.pendingPid) > 0 {
		p.mu.Unlock()
		return nil
	}
	for idx, rs := range p.recv {
		if rs.boot == 0 && rs.delivered == 0 {
			continue
		}
		ps.Recv = append(ps.Recv, RecvEntry{Index: idx, Boot: rs.boot, Seq: rs.delivered})
	}
	links := make(map[int32]*link, len(p.links))
	for idx, l := range p.links {
		links[idx] = l
	}
	p.mu.Unlock() // never hold p.mu and a link's bmu together
	for idx, l := range links {
		frames := l.pendingFrames()
		var envs []wire.Envelope
		for _, f := range frames {
			if env, ok := f.(wire.Envelope); ok {
				env.Seq, env.Ack = 0, 0
				envs = append(envs, env)
			}
			// Book updates are not persisted: a stale book could regress
			// addresses, and the seed re-broadcasts on rejoin anyway.
		}
		if len(envs) > 0 {
			ps.Links = append(ps.Links, LinkState{Index: idx, Frames: envs})
		}
	}
	sort.Slice(ps.Recv, func(i, j int) bool { return ps.Recv[i].Index < ps.Recv[j].Index })
	sort.Slice(ps.Links, func(i, j int) bool { return ps.Links[i].Index < ps.Links[j].Index })
	return ps
}

// RestoreState rewinds the peer to a captured state (before Start). The
// restored receive cursors count as acknowledged: the snapshot holding
// them covers their effects, so senders may prune them — the HelloAck of
// the next handshake tells them to replay everything newer. Captured
// outbound frames re-enter their links' queues and get fresh sequence
// numbers under the new boot epoch. The peer must have been created with
// a boot epoch strictly above the captured one: receivers reset their
// dedupe cursors on a boot bump, so restoring under a stale epoch would
// silently replay frames into cursors that still cover them.
//
//skueue:snapshot-restore Peer link recvState
func (p *Peer) RestoreState(ps *PeerState) {
	if p.opts.Boot <= ps.Boot {
		panic(fmt.Sprintf("tcp: RestoreState with boot %d, captured state is from boot %d; the restored peer must advance the epoch", p.opts.Boot, ps.Boot))
	}
	p.now = ps.Now
	p.nextDyn = ps.NextDyn
	p.mu.Lock()
	for _, e := range ps.Recv {
		p.recv[e.Index] = &recvState{boot: e.Boot, enqueued: e.Seq, delivered: e.Seq, acked: e.Seq}
	}
	p.mu.Unlock()
	for _, ls := range ps.Links {
		l := p.linkTo(ls.Index)
		for _, env := range ls.Frames {
			l.send(env)
		}
	}
}

// ---- Links ----

func (p *Peer) linkTo(idx int32) *link {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.links[idx]; ok {
		return l
	}
	l := &link{
		idx:    idx,
		quit:   make(chan struct{}),
		notify: make(chan struct{}, 1),
	}
	p.links[idx] = l
	go p.runLink(l)
	return l
}

// send queues a frame. It never blocks: a member that stopped reading
// must not stall the runner goroutine feeding the queue, however long it
// stays dead (the give-up timeout, not backpressure, is the bound on a
// dead member).
func (l *link) send(frame any) {
	l.bmu.Lock()
	l.queue = append(l.queue, frame)
	l.bmu.Unlock()
	l.wake()
}

func (l *link) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// noteAck records a cumulative acknowledgment for this link, coalescing
// to the maximum, and wakes the link goroutine to prune its buffer.
func (l *link) noteAck(seq uint64) {
	l.bmu.Lock()
	if seq > l.pendingAck {
		l.pendingAck = seq
	}
	l.bmu.Unlock()
	l.wake()
}

// prune drops every buffered frame the cumulative acknowledgment covers.
func (l *link) prune() {
	l.bmu.Lock()
	ack := l.pendingAck
	i := 0
	for ; i < len(l.unacked); i++ {
		if frameSeq(l.unacked[i]) > ack {
			break
		}
	}
	if i > 0 {
		l.unacked = append(l.unacked[:0], l.unacked[i:]...)
	}
	l.bmu.Unlock()
}

// takeQueue moves every queued frame into the unacknowledged buffer, each
// under the next sequence number and sealed with the piggyback
// acknowledgment, and returns them in that order for one batched write.
// One critical section per wake-up: a burst (a serve fanning out, a
// replayed tail) costs one pass, not a slice shift per frame.
func (l *link) takeQueue(ack uint64) []any {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	if len(l.queue) == 0 {
		return nil
	}
	sealed := l.queue
	l.queue = nil
	for i, frame := range sealed {
		l.nextSeq++
		sealed[i] = sealFrame(frame, l.nextSeq, ack)
	}
	l.unacked = append(l.unacked, sealed...)
	return sealed
}

// dropUnacked removes the frame with the given sequence (unencodable).
func (l *link) dropUnacked(seq uint64) {
	l.bmu.Lock()
	for i, f := range l.unacked {
		if frameSeq(f) == seq {
			l.unacked = append(l.unacked[:i], l.unacked[i+1:]...)
			break
		}
	}
	l.bmu.Unlock()
}

// unackedFrames copies the retransmission buffer (reconnect replay).
func (l *link) unackedFrames() []any {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	return append([]any(nil), l.unacked...)
}

// pendingFrames copies everything not yet delivered — transmitted but
// unacknowledged frames first, then the untransmitted queue — for a state
// capture.
func (l *link) pendingFrames() []any {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	out := make([]any, 0, len(l.unacked)+len(l.queue))
	out = append(out, l.unacked...)
	out = append(out, l.queue...)
	return out
}

// noteDead tells the link goroutine a connection died, so an idle link
// (nothing left to write) still reconnects and replays unacknowledged
// frames. Never lossy: the link re-checks the set on every wake-up.
func (l *link) noteDead(c *wire.Conn) {
	l.bmu.Lock()
	if l.deadConns == nil {
		l.deadConns = make(map[*wire.Conn]bool)
	}
	l.deadConns[c] = true
	l.bmu.Unlock()
	l.wake()
}

// adoptConn makes c the link's current connection: entries for previous
// connections are dropped (they can no longer be current), keeping the
// set bounded. It reports false if c already died — the reader goroutine
// can notice a death before the link loop ever runs with the connection.
func (l *link) adoptConn(c *wire.Conn) bool {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	if l.deadConns[c] {
		delete(l.deadConns, c)
		return false
	}
	for k := range l.deadConns {
		delete(l.deadConns, k)
	}
	return true
}

// connDead reports whether the current connection was declared dead.
func (l *link) connDead(c *wire.Conn) bool {
	l.bmu.Lock()
	defer l.bmu.Unlock()
	if l.deadConns[c] {
		delete(l.deadConns, c)
		return true
	}
	return false
}

// sealFrame stamps a link frame with its sequence number and the current
// piggyback acknowledgment.
func sealFrame(frame any, seq, ack uint64) any {
	switch f := frame.(type) {
	case wire.Envelope:
		f.Seq, f.Ack = seq, ack
		return f
	case wire.BookUpdate:
		f.Seq, f.Ack = seq, ack
		return f
	}
	return frame
}

func frameSeq(frame any) uint64 {
	switch f := frame.(type) {
	case wire.Envelope:
		return f.Seq
	case wire.BookUpdate:
		return f.Seq
	}
	return 0
}

// writeFrames writes sealed frames as one batch, handling the two failure
// classes: an encoding failure drops the offending frame alone (retrying
// can never succeed) and recycles the connection (a partial encode
// desyncs the gob stream) — the rest of the batch stays buffered and is
// replayed on the next one; any other failure recycles the connection for
// redial-and-replay. It reports whether the connection survived.
func (p *Peer) writeFrames(l *link, conn *wire.Conn, sealed []any) bool {
	bad, err := conn.WriteBatch(sealed)
	if err == nil {
		return true
	}
	if errors.Is(err, wire.ErrEncode) {
		p.opts.Logf("tcp[%d]: dropping unencodable frame for member %d: %v", p.opts.Index, l.idx, err)
		l.dropUnacked(frameSeq(sealed[bad]))
	} else {
		p.opts.Logf("tcp[%d]: link to member %d broke (%v); redialing", p.opts.Index, l.idx, err)
	}
	conn.Close()
	return false
}

// runLink owns one directed stream: it dials (and redials) the target
// member, assigns sequence numbers, writes frames, keeps everything
// unacknowledged buffered, and replays past the receiver's cursor after
// every reconnect. The buffer only shrinks on cumulative acknowledgments,
// so a frame the kernel accepted but a reset swallowed is retransmitted.
func (p *Peer) runLink(l *link) {
	var conn *wire.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		if conn == nil {
			c, ackSeq := p.dial(l)
			if c == nil {
				return // shutting down
			}
			if !l.adoptConn(c) {
				c.Close()
				continue // died during the handshake; redial
			}
			conn = c
			l.noteAck(ackSeq)
			l.prune()
			replay, ack := l.unackedFrames(), p.takeAck(l.idx)
			for i, f := range replay {
				replay[i] = sealFrame(f, frameSeq(f), ack)
			}
			if !p.writeFrames(l, conn, replay) {
				conn = nil
				continue
			}
			// End-of-replay fence: every frame buffered unacknowledged at
			// reconnect now precedes it on this connection, so a receiver
			// restoring from a crash knows this link's pre-crash traffic
			// has fully arrived (see the replay gate in internal/server).
			if err := conn.Write(wire.ReplayFence{Boot: p.opts.Boot}); err != nil {
				p.opts.Logf("tcp[%d]: link to member %d broke (%v); redialing", p.opts.Index, l.idx, err)
				conn.Close()
				conn = nil
				continue
			}
		}
		l.prune()
		if l.connDead(conn) {
			conn.Close()
			conn = nil
			continue
		}
		if sealed := l.takeQueue(p.takeAck(l.idx)); len(sealed) > 0 {
			if !p.writeFrames(l, conn, sealed) {
				conn = nil
			}
			continue
		}
		select {
		case <-l.quit:
			return
		case <-p.quit:
			return
		case <-l.notify:
			// Re-check queue, acknowledgments and connection liveness at
			// the top of the loop.
		}
	}
}

// dialTimeout bounds one connection attempt of dial: the TCP connect, and
// then the Hello exchange on the connection it produced.
const dialTimeout = 2 * time.Second

// dial establishes a connection to member l.idx, performing the Hello
// exchange. It retries until it succeeds or the peer shuts down, firing
// the give-up notification each time Options.GiveUp elapses without a
// connection. It returns the connection and the receiver's cumulative
// acknowledgment (the replay point).
func (p *Peer) dial(l *link) (*wire.Conn, uint64) {
	backoff := 10 * time.Millisecond
	var giveUpAt time.Time
	if p.opts.GiveUp > 0 {
		giveUpAt = time.Now().Add(p.opts.GiveUp)
	}
	for {
		select {
		case <-l.quit:
			return nil, 0
		case <-p.quit:
			return nil, 0
		default:
		}
		p.mu.Lock()
		addr := p.book[l.idx].Addr
		p.mu.Unlock()
		if addr == "" {
			p.opts.Logf("tcp[%d]: no address for member %d yet", p.opts.Index, l.idx)
		} else if nc, err := net.DialTimeout("tcp", addr, dialTimeout); err == nil {
			// The handshake gets the bound the connect had: a peer that
			// accepts and never answers must cost one attempt, not pin this
			// goroutine in Read past every backoff and give-up.
			nc.SetDeadline(time.Now().Add(dialTimeout))
			conn := wire.NewConn(nc)
			if err := conn.Write(wire.Hello{Kind: "peer", Me: p.Me(), Book: p.Book(), Boot: p.opts.Boot}); err == nil {
				if ack, err := conn.Read(); err == nil {
					if ha, ok := ack.(wire.HelloAck); ok {
						nc.SetDeadline(time.Time{})
						p.SetBook(ha.Book)
						// Reverse path: acknowledgments and book pushes.
						go p.drainControl(conn, l)
						return conn, ha.AckSeq
					}
				}
			}
			conn.Close()
		} else {
			p.opts.Logf("tcp[%d]: dial member %d (%s): %v", p.opts.Index, l.idx, addr, err)
		}
		select {
		case <-time.After(backoff):
		case <-l.quit:
			return nil, 0
		case <-p.quit:
			return nil, 0
		}
		if backoff < time.Second {
			backoff *= 2
		}
		if !giveUpAt.IsZero() && time.Now().After(giveUpAt) {
			p.opts.Logf("tcp[%d]: member %d unreachable for %v; declaring it down", p.opts.Index, l.idx, p.opts.GiveUp)
			if p.opts.OnDown != nil {
				p.opts.OnDown(l.idx)
			}
			giveUpAt = time.Now().Add(p.opts.GiveUp)
		}
	}
}

// drainControl consumes frames the remote pushes on a dialer-owned
// connection — cumulative acknowledgments and address-book updates —
// until the connection closes, then tells the link so it reconnects and
// replays even when it has nothing new to write.
func (p *Peer) drainControl(conn *wire.Conn, l *link) {
	for {
		v, err := conn.Read()
		if err != nil {
			l.noteDead(conn)
			return
		}
		switch m := v.(type) {
		case wire.Ack:
			l.noteAck(m.Seq)
		case wire.BookUpdate:
			p.SetBook(m.Book)
		}
	}
}

// ackLoop writes standalone acknowledgments on the reverse path of an
// inbound peer connection while no outbound traffic to that member
// piggybacks them. It exits when the connection dies or the read loop
// finishes.
func (p *Peer) ackLoop(conn *wire.Conn, idx int32, stop <-chan struct{}) {
	period := 8 * p.opts.Tick
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-p.quit:
			return
		case <-t.C:
			if seq, due := p.ackDue(idx); due {
				if err := conn.Write(wire.Ack{Seq: seq}); err != nil {
					return
				}
			}
		}
	}
}

// AcceptPeer serves an inbound peer connection whose Hello the listener
// already consumed: it merges the dialer's book, acks with ours (carrying
// the delivery cursor the dialer must replay from), and delivers inbound
// envelopes — deduplicated by link sequence — until the connection
// closes. Run it on the connection's goroutine.
func (p *Peer) AcceptPeer(conn *wire.Conn, hello wire.Hello) {
	idx := hello.Me.Index
	p.AddMember(hello.Me)
	p.SetBook(hello.Book)
	ackSeq := p.senderHello(idx, hello.Boot)
	if err := conn.Write(wire.HelloAck{Book: p.Book(), Index: p.opts.Index, AckSeq: ackSeq}); err != nil {
		conn.Close()
		return
	}
	stop := make(chan struct{})
	defer close(stop)
	go p.ackLoop(conn, idx, stop)
	boot := hello.Boot
	sh := p.shaperFor(idx) // nil unless Options.Shape is enabled
	for {
		v, err := conn.Read()
		if err != nil {
			conn.Close()
			return
		}
		switch m := v.(type) {
		case wire.Envelope:
			if m.Ack > 0 {
				p.noteAckFor(idx, m.Ack)
			}
			if p.preAdmit(idx, boot, m.Seq) {
				m := m
				sh.admit(p, func() {
					p.Do(func() {
						// Cursor and node effect advance in the same runner
						// task: a state capture sees both or neither.
						p.markDelivered(idx, boot, m.Seq)
						p.deliver(m)
					})
				})
			}
		case wire.BookUpdate:
			if m.Ack > 0 {
				p.noteAckFor(idx, m.Ack)
			}
			if p.preAdmit(idx, boot, m.Seq) {
				m := m
				sh.admit(p, func() {
					p.SetBook(m.Book)
					p.Do(func() { p.markDelivered(idx, boot, m.Seq) })
				})
			}
		case wire.Ack:
			p.noteAckFor(idx, m.Seq)
		case wire.ReplayFence:
			// Ride the same ordered path as sequenced frames (shaper pipe,
			// then runner queue): when the runner task fires, every frame
			// the sender replayed ahead of the fence has been processed.
			sh.admit(p, func() {
				p.Do(func() { p.noteReplayFence(idx, m.Boot) })
			})
		default:
			p.opts.Logf("tcp[%d]: unexpected peer frame %T", p.opts.Index, v)
		}
	}
}
