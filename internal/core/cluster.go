package core

import (
	"errors"
	"fmt"

	"skueue/internal/batch"
	"skueue/internal/dht"
	"skueue/internal/ldb"
	"skueue/internal/seqcheck"
	"skueue/internal/sim"
	"skueue/internal/transport"
	"skueue/internal/xrand"
)

// Config parameterizes a simulated Skueue deployment.
type Config struct {
	// Processes is the initial number of processes; each emulates three
	// virtual nodes (Definition 2).
	Processes int
	// Seed drives all randomness: labels, keys, scheduling, workloads.
	Seed int64
	// Mode selects queue (§III), stack (§VI) or heap (bounded-priority,
	// Skeap-style) semantics.
	Mode batch.Mode
	// HeapLevels is the number of priority levels in heap mode (bounded
	// constant priorities); valid levels are 0..HeapLevels-1. Values
	// below 1 select a single level. Ignored outside heap mode.
	HeapLevels int
	// Async switches to the fully asynchronous scheduler (§I-B model); the
	// default is the synchronous round model the evaluation uses.
	Async bool
	// MaxDelay and TimeoutEvery tune the asynchronous scheduler.
	MaxDelay     int
	TimeoutEvery int
	// ShuffleTimeouts randomizes per-round TIMEOUT order (synchronous).
	ShuffleTimeouts bool
	// DisableLocalCombining turns off the §VI local push/pop combining
	// (ablation: batches grow, Theorem 20 no longer holds).
	DisableLocalCombining bool
	// DisableStage4Wait turns off the §VI completion wait (ablation: the
	// paper's counterexample becomes reachable and sequential consistency
	// can break under asynchrony).
	DisableStage4Wait bool
	// UpdateThreshold is the number of pending join/leave requests the
	// anchor requires before starting an update phase; default 1.
	UpdateThreshold int
	// Shape is an optional WAN delivery profile for the simulator backend
	// (extra per-message delay in rounds; see transport.Shape). Ignored in
	// member mode, where the hosting server configures the TCP peer.
	Shape transport.Shape
}

// Process groups the three virtual nodes a process emulates.
type Process struct {
	ID    int32
	Nodes [3]transport.NodeID // indexed by ldb.Kind: Left, Middle, Right
	// Joining is true until all three nodes have been integrated.
	Joining bool
	// Left is true once the process has requested to leave.
	Left bool
}

// Metrics aggregates protocol-level counters across a run.
type Metrics struct {
	BatchesSent   int64
	MaxBatchRuns  int
	WavesAssigned int64
	// EmptyWaves counts the reports Algorithm 1 would have exchanged and
	// work-driven firing did not: one per fire and child that stood idle
	// (an empty aggregate up and its serve down, each time). Declines
	// counts the frames that bought them. Both stay zero on a backend that
	// never offers the readiness hook — no simulated node ever stands idle.
	EmptyWaves    int64
	Declines      int64
	UpdatePhases  int64
	ParkedGets    int64
	CombinedOps   int64
	ForwardedMsgs int64
	RouteMsgs     int64
	RouteHops     int64
	// MaxRouteHops is the longest route delivered: what a shorter De Bruijn
	// bit count (ldb.NewRoute) costs in the tail, counted rather than inferred.
	MaxRouteHops int
	MaxQueueSize int64
	// MaxWavesInFlight is the deepest pipeline any node reached: the most
	// waves it had fired and not yet seen served. PipelinedFires counts the
	// fires made with a wave already in flight. Both stay at 1 and 0 in
	// stack mode, which never pipelines (§VI's completion wait).
	MaxWavesInFlight int
	PipelinedFires   int64
}

func (m *Metrics) noteBatch(b batch.Batch) {
	m.BatchesSent++
	if b.Size() > m.MaxBatchRuns {
		m.MaxBatchRuns = b.Size()
	}
}

func (m *Metrics) noteQueueSize(s int64) {
	if s > m.MaxQueueSize {
		m.MaxQueueSize = s
	}
}

func (m *Metrics) noteRoute(hops int) {
	m.RouteMsgs++
	m.RouteHops += int64(hops)
	m.MaxRouteHops = max(m.MaxRouteHops, hops)
}

// AvgRouteHops returns the mean LDB routing path length observed.
func (m *Metrics) AvgRouteHops() float64 {
	if m.RouteMsgs == 0 {
		return 0
	}
	return float64(m.RouteHops) / float64(m.RouteMsgs)
}

// Cluster is one deployment's view of the Skueue protocol: the processes
// and virtual nodes it hosts, the backend delivering their messages, and
// the completion history recorded here.
//
// Under the simulator (New) a Cluster owns every node of the system and
// the engine driving them. Under the TCP transport (NewMember) each
// operating-system process holds one Cluster covering only its local
// nodes; the engine is absent, simulation-only methods (Step, Run, Drain,
// Engine, ...) must not be called, and counters such as Issued, Finished
// and the history are member-local.
//
// In member mode a Cluster survives fail-stop crashes through
// MemberSnapshot (snapshot.go); statecomplete enforces field coverage.
//
//skueue:snapshot-state MemberSnapshot
type Cluster struct {
	cfg     Config
	eng     *sim.Engine       // simulator backend; nil in member mode
	net     transport.Network // message delivery (the engine, or a TCP peer)
	reg     transport.Registry
	labels  xrand.Hasher
	keyHash xrand.Hasher
	procs   []*Process
	nodes   map[transport.NodeID]*Node
	hist    *seqcheck.History
	//skueue:ephemeral -- observability counters; a restart resets metrics, not queue state
	metrics Metrics
	//skueue:ephemeral -- simulator-only probe (Split); a member counts nothing
	split Split
	//skueue:ephemeral -- simulator-only probe state, one entry per operation under way
	stamps   map[uint64]opStamp
	issued   int64
	finished int64
	// reqBase tags this member's request IDs so they stay globally unique
	// across a networked cluster; zero under the simulator.
	reqBase  uint64
	reqSeq   uint64
	nextProc int32
	//skueue:ephemeral -- completion callback, rewired by the hosting layer after restore
	onComplete func(seqcheck.Completion)
	//skueue:ephemeral -- put-ack callback, rewired by the hosting layer after restore
	onPutAck func(reqID uint64)
	// onFire reports committed wave fires to a hosting layer that logs them
	// and replays the log after a restart (see SetOnFire, replay.go).
	//
	//skueue:ephemeral -- wave-fire callback, rewired by the hosting layer after restore
	onFire func(node transport.NodeID, waveSeq int64, folded []FoldedWaveImage)
	//skueue:ephemeral -- logger, rewired via SetLogf after restore
	log func(format string, args ...any)
}

// New builds and wires a cluster. All processes given in the config are
// present from the start (bootstrap); later arrivals use JoinProcess.
func New(cfg Config) (*Cluster, error) {
	if cfg.Processes < 1 {
		return nil, errors.New("core: need at least one process")
	}
	cl := &Cluster{
		cfg:     cfg,
		labels:  xrand.NewHasher(cfg.Seed, "labels"),
		keyHash: xrand.NewHasher(cfg.Seed, "positions"),
		nodes:   make(map[transport.NodeID]*Node),
		hist:    &seqcheck.History{},
	}
	cl.eng = sim.New(sim.Config{
		Seed:            xrand.New(cfg.Seed).Fork("engine").Int63(),
		Async:           cfg.Async,
		MaxDelay:        cfg.MaxDelay,
		TimeoutEvery:    cfg.TimeoutEvery,
		ShuffleTimeouts: cfg.ShuffleTimeouts,
		Shape:           cfg.Shape,
	})
	cl.net = cl.eng

	// Spawn all initial nodes (sibling edges included), then wire the ring.
	for p := 0; p < cfg.Processes; p++ {
		proc, _ := cl.spawnProcess()
		proc.Joining = false
	}
	cl.wireBootstrapRing()
	return cl, nil
}

// bootstrapRing is the ring of the first procs processes. It is a pure
// function of the seed — labels come from the seeded hasher, and process
// pid's three virtual nodes live at NodeIDForProcess(pid, kind), which is
// also what the simulator's dense spawn order hands out — so every member
// of a networked deployment, and a harness that has started nothing,
// derive the same one.
func bootstrapRing(labels xrand.Hasher, procs int) *ldb.Ring {
	refs := make([]ldb.Ref, 0, 3*procs)
	for pid := int32(0); pid < int32(procs); pid++ {
		l, m, r := ldb.ProcessPoints(labels, uint64(pid))
		for k, pt := range [3]ldb.Point{ldb.Left: l, ldb.Middle: m, ldb.Right: r} {
			refs = append(refs, ldb.Ref{ID: NodeIDForProcess(pid, ldb.Kind(k)), Point: pt, Kind: ldb.Kind(k)})
		}
	}
	return ldb.NewRing(refs)
}

// wireBootstrapRing integrates the hosted bootstrap nodes: ring neighbours
// from the bootstrap ring of cfg.Processes processes, every view exact — the
// neighbours two hops away, what the neighbours report to, the siblings'
// ring edges — and the anchor role at its leftmost node if that one is
// hosted here. Every process starts whole, so no message is needed.
func (cl *Cluster) wireBootstrapRing() {
	if cl.cfg.Processes < 1 {
		return // a late joiner: its process enters through JoinRemote
	}
	ring := bootstrapRing(cl.labels, cl.cfg.Processes)
	size := ring.Len()
	at := func(i int) ldb.Ref { return ring.At((i%size + size) % size) }
	// pos[id] is node id's place on the ring: bootstrap IDs are dense
	// (NodeIDForProcess).
	pos := make([]int, size)
	for i := 0; i < size; i++ {
		pos[ring.At(i).ID] = i
	}
	edges := func(i int) ldb.Edges { return ldb.Edges{Pred: at(i - 1), Succ: at(i + 1)} }
	// ups[p] is process p's up edge, the same from each of its nodes, read
	// once from its left node's view; told(i) is what node i tells it
	// reports to.
	ups := make([]ldb.Up, cl.cfg.Processes)
	for p := range ups {
		l, m, r := pos[3*p], pos[3*p+1], pos[3*p+2]
		ups[p] = ldb.Neighborhood{
			Self: at(l), Pred: at(l - 1), Succ: at(l + 1),
			Whole:    true,
			SibEdges: [2]ldb.Edges{edges(l), edges(m)},
			SibL:     at(l), SibM: at(m), SibR: at(r),
		}.UpEdge()
	}
	told := func(i int) ldb.Ref {
		if self, u := at(i), ups[at(i).ID/3]; u.Holder == self.Kind {
			return u.To
		}
		return ldb.Ref{ID: transport.None}
	}
	for i := 0; i < size; i++ {
		n, ok := cl.nodes[at(i).ID]
		if !ok {
			continue // hosted by another member
		}
		n.pred, n.succ = at(i-1), at(i+1)
		n.predView = ringView{Far: at(i - 2), Up: told(i - 1)}
		n.succView = ringView{Far: at(i + 2), Up: told(i + 1)}
		n.sibViews = [2]sibView{{Edges: edges(pos[n.sibL.ID])}, {Edges: edges(pos[n.sibM.ID])}}
		n.up = ups[at(i).ID/3]
		n.orderSite()
		n.churn.joining = false
		n.sibIn = [3]bool{true, true, true}
	}
	if anchor, ok := cl.nodes[ring.Min().ID]; ok {
		anchor.anchorRole = true
		anchor.ast = batch.NewAnchorState()
	}
}

// spawnProcess creates the three virtual nodes of a fresh process under
// the next free process ID. The caller decides whether they start
// integrated (bootstrap) or joining.
func (cl *Cluster) spawnProcess() (*Process, [3]ldb.Ref) {
	pid := cl.nextProc
	cl.nextProc++
	return cl.spawnProcessAt(pid)
}

// NodeIDForProcess is the globally agreed node address of process pid's
// virtual node of the given kind under backends with caller-chosen
// addresses (transport.Registry). The simulator's dense spawn order
// produces the same IDs for bootstrap processes.
func NodeIDForProcess(pid int32, kind ldb.Kind) transport.NodeID {
	return transport.NodeID(pid*3 + int32(kind))
}

// spawnProcessAt creates the three virtual nodes of process pid.
func (cl *Cluster) spawnProcessAt(pid int32) (*Process, [3]ldb.Ref) {
	l, m, r := ldb.ProcessPoints(cl.labels, uint64(pid))
	proc := &Process{ID: pid, Joining: true}
	var prefs [3]ldb.Ref
	points := [3]ldb.Point{ldb.Left: l, ldb.Middle: m, ldb.Right: r}
	for k, pt := range points {
		kind := ldb.Kind(k)
		n := &Node{
			cl:          cl,
			disc:        cl.newDiscipline(),
			store:       dht.NewStore(),
			pendingGets: make(map[uint64]getCtx),
			// Until wired, every ref must be explicitly invalid; the zero
			// Ref would silently address node 0.
			pred:     ldb.Ref{ID: transport.None},
			succ:     ldb.Ref{ID: transport.None},
			predView: unknownView,
			succView: unknownView,
			sibViews: [2]sibView{unknownSib, unknownSib},
			up:       ldb.Up{To: ldb.Ref{ID: transport.None}},
		}
		n.churn.joining = true
		n.churn.relayVia = ldb.Ref{ID: transport.None}
		n.sibIn[kind] = true
		var id transport.NodeID
		if cl.reg != nil {
			id = NodeIDForProcess(pid, kind)
			cl.reg.Register(id, n)
		} else {
			id = cl.eng.Spawn(n)
		}
		n.self = ldb.Ref{ID: id, Point: pt, Kind: kind}
		n.clientID = int32(id)
		cl.nodes[id] = n
		proc.Nodes[kind] = id
		prefs[kind] = n.self
	}
	// Sibling (virtual) edges.
	for kind := ldb.Left; kind <= ldb.Right; kind++ {
		n := cl.nodes[proc.Nodes[kind]]
		n.sibL, n.sibM, n.sibR = prefs[ldb.Left], prefs[ldb.Middle], prefs[ldb.Right]
	}
	if cl.reg == nil {
		// A virtual edge is not a message between processes: the triad is
		// one site of the engine. TIMEOUT runs children first, so an
		// aggregate climbs Right → Middle → Left within one round; a middle
		// node that holds the process's up edge moves itself last
		// (Node.orderSite).
		cl.eng.Colocate(proc.Nodes[ldb.Right], proc.Nodes[ldb.Middle], proc.Nodes[ldb.Left])
	}
	cl.procs = append(cl.procs, proc)
	return proc, prefs
}

func (cl *Cluster) updateThreshold() int {
	if cl.cfg.UpdateThreshold < 1 {
		return 1
	}
	return cl.cfg.UpdateThreshold
}

// ReqIDMemberShift positions the issuing member's tag in a request ID:
// the high bits carry memberIndex+1 (zero = simulator), the low 40 bits
// the member-local sequence — ~10^12 requests per member before overflow.
const ReqIDMemberShift = 40

// ReqIDMember extracts the member tag of a request ID (memberIndex+1, or
// zero under the simulator). The server layer uses it to recognize
// completions of its own requests in a merged world.
func ReqIDMember(reqID uint64) uint64 { return reqID >> ReqIDMemberShift }

// NextReqID is the request ID the next operation injected at this member
// takes unless its host names another: the member tag plus the successor of
// the member-local counter. It has no side effect — the counter moves only
// when Inject buffers an operation under the ID — so a host reserves the
// ID, registers whatever must be findable under it (an in-flight entry, a
// future, a journal record), and only then injects. Runner goroutine only.
func (cl *Cluster) NextReqID() uint64 { return cl.reqBase | (cl.reqSeq + 1) }

// Inject is the one way an operation enters the protocol: it buffers op at
// the client node under op.ReqID — fresh from NextReqID, or the original
// ID of a journaled operation re-submitted after a fail-stop restart, which
// makes the re-executed operation the same operation to every dedupe path —
// and raises the member-local counter to cover the ID (never lowers it), so
// a later NextReqID cannot collide. The host fills ReqID, IsDeq, Pri and
// Blob; Elem, Born and LocalSeq are stamped here. Generation itself costs
// no messages (the paper's "nodes generate requests"), but in stack mode a
// pop may complete on the spot against a buffered push (§VI): onComplete
// then fires for both BEFORE Inject returns, which is why hosts register
// first. Runner goroutine (or before the transport starts) only.
func (cl *Cluster) Inject(client transport.NodeID, op Op) {
	n, ok := cl.nodes[client]
	if !ok {
		if cl.memberMode() {
			cl.logf("core: dropping op %d injected at unknown node %d", op.ReqID, client)
			return
		}
		panic(fmt.Sprintf("core: Inject at unknown node %d", client))
	}
	if !op.IsDeq && (op.Pri < 0 || int(op.Pri) >= n.disc.priLevels()) {
		panic(fmt.Sprintf("core: enqueue priority %d out of range for mode %v (levels=%d)", op.Pri, cl.cfg.Mode, n.disc.priLevels()))
	}
	cl.AdvanceReqSeq(ReqIDSeq(op.ReqID))
	op.Born = cl.net.Now()
	op.LocalSeq = n.nextLocalSeq
	n.nextLocalSeq++
	if !op.IsDeq {
		op.Elem = dht.Element{Origin: n.clientID, Seq: n.nextElemSeq}
		n.nextElemSeq++
	}
	cl.issued++
	n.disc.bufferOp(n, op)
}

// injectNext injects op under NextReqID and returns the ID: the hostless
// form behind Enqueue and Dequeue, for callers with nothing to register.
func (cl *Cluster) injectNext(client transport.NodeID, op Op) uint64 {
	op.ReqID = cl.NextReqID()
	cl.Inject(client, op)
	return op.ReqID
}

// memberMode reports whether this Cluster is one member's fragment of a
// networked deployment. The simulator treats protocol anomalies as fatal
// bugs (panic); a networked member additionally tolerates the benign
// duplicates a fail-stop restart produces — a restored member re-executes
// the tail of its history past its last snapshot, so its peers can see a
// handful of its pre-crash messages again (see internal/server).
func (cl *Cluster) memberMode() bool { return cl.eng == nil }

// SetLogf routes diagnostics (restart-replay tolerance, churn corners) to
// the member's logger; default discards.
func (cl *Cluster) SetLogf(fn func(format string, args ...any)) { cl.log = fn }

func (cl *Cluster) logf(format string, args ...any) {
	if cl.log != nil {
		cl.log(format, args...)
	}
}

func (cl *Cluster) recordCompletion(c seqcheck.Completion) {
	cl.hist.Record(c)
	cl.finished++
	cl.noteDone(c.ReqID, c.Born, c.Done)
	if cl.onComplete != nil {
		cl.onComplete(c)
	}
}

// SetOnComplete registers a callback invoked for every completed request
// (the client layer uses it to resolve futures; a networked member uses
// it to answer remote clients). The callback fires on the runner
// goroutine and must not block.
//
//skueue:runs-on-runner
func (cl *Cluster) SetOnComplete(fn func(seqcheck.Completion)) { cl.onComplete = fn }

// SetOnPutAck registers a callback invoked when a PUT issued by one of
// this cluster's nodes is acknowledged as stored. In member mode every PUT
// is acknowledged (the simulator acknowledges only the stack-mode ones the
// §VI completion wait needs: one cluster sees every completion there),
// which is how a networked member resolves enqueues whose completion was
// recorded at the member storing the element. The callback fires on the
// runner goroutine and must not block.
//
//skueue:runs-on-runner
func (cl *Cluster) SetOnPutAck(fn func(reqID uint64)) { cl.onPutAck = fn }

func (cl *Cluster) noteDeparted(n *Node)    { delete(cl.nodes, n.self.ID) }
func (cl *Cluster) noteReplacement(n *Node) { cl.nodes[n.self.ID] = n }
func (cl *Cluster) noteIntegrated(n *Node) {
	// Mark the owning process fully joined once all three nodes are in.
	for _, p := range cl.procs {
		for _, id := range p.Nodes {
			if id == n.self.ID {
				for _, other := range p.Nodes {
					if on, ok := cl.nodes[other]; ok && on.churn.joining {
						return
					}
				}
				p.Joining = false
				return
			}
		}
	}
}

// Engine exposes the simulation engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// History returns the completion history for verification.
func (cl *Cluster) History() *seqcheck.History { return cl.hist }

// Metrics returns a copy of the protocol metrics.
func (cl *Cluster) Metrics() Metrics { return cl.metrics }

// Issued and Finished return request progress counters.
func (cl *Cluster) Issued() int64   { return cl.issued }
func (cl *Cluster) Finished() int64 { return cl.finished }

// Mode returns the configured semantics.
func (cl *Cluster) Mode() batch.Mode { return cl.cfg.Mode }

// Processes returns the process table (including departed entries).
func (cl *Cluster) Processes() []*Process { return cl.procs }

// Node returns the live node with the given id, if present.
func (cl *Cluster) Node(id transport.NodeID) (*Node, bool) {
	n, ok := cl.nodes[id]
	return n, ok
}

// Client returns the virtual node a process issues requests through (its
// middle node, per the client layer's convention).
func (cl *Cluster) Client(proc int) transport.NodeID {
	return cl.procs[proc].Nodes[ldb.Middle]
}

// ActiveClients lists nodes eligible to issue requests: live, not
// departed, not leaving, not replacements.
func (cl *Cluster) ActiveClients() []transport.NodeID {
	var out []transport.NodeID
	for _, p := range cl.procs {
		if p.Left {
			continue
		}
		for _, id := range p.Nodes {
			n, ok := cl.nodes[id]
			if ok && !n.churn.departed && !n.churn.leaving {
				out = append(out, id)
			}
		}
	}
	return out
}

// Enqueue buffers an ENQUEUE (PUSH) request at the given client node.
func (cl *Cluster) Enqueue(client transport.NodeID) uint64 {
	return cl.EnqueuePriBlob(client, 0, nil)
}

// EnqueueBlob is Enqueue with an opaque application payload that rides
// with the element through the DHT; a dequeue serialized against it
// receives the payload in its completion record.
func (cl *Cluster) EnqueueBlob(client transport.NodeID, blob []byte) uint64 {
	return cl.EnqueuePriBlob(client, 0, blob)
}

// EnqueuePriBlob buffers an ENQUEUE at the given priority level (heap
// mode; other modes use level 0). Out-of-range levels are a caller bug.
func (cl *Cluster) EnqueuePriBlob(client transport.NodeID, pri int32, blob []byte) uint64 {
	return cl.injectNext(client, Op{Pri: pri, Blob: blob})
}

// heapLevels returns the effective number of priority levels.
func (cl *Cluster) heapLevels() int {
	if cl.cfg.HeapLevels < 1 {
		return 1
	}
	return cl.cfg.HeapLevels
}

// HeapLevels exposes the effective priority-level count; the hosting
// layer validates client-supplied levels against it before injection.
func (cl *Cluster) HeapLevels() int { return cl.heapLevels() }

// Dequeue buffers a DEQUEUE (POP, DEQUEUEMIN) request at the given client
// node.
func (cl *Cluster) Dequeue(client transport.NodeID) uint64 {
	return cl.injectNext(client, Op{IsDeq: true})
}

// Step advances the simulation by one round (or one event when async).
func (cl *Cluster) Step() { cl.eng.Step() }

// Run advances the simulation by the given number of rounds / time units.
func (cl *Cluster) Run(rounds int64) { cl.eng.Run(rounds) }

// Drain runs until every issued request completed, or maxTime elapses.
// It reports whether the system fully drained.
func (cl *Cluster) Drain(maxTime int64) bool {
	return cl.eng.RunUntil(func() bool { return cl.finished >= cl.issued }, maxTime)
}

// CheckConsistency verifies the full history against Definition 1 (or
// its priority generalization in heap mode).
func (cl *Cluster) CheckConsistency() error {
	return cl.newDiscipline().check(cl.hist)
}

// JoinProcess spawns a fresh process and routes its three JOIN requests
// into the system via the given contact process (§IV-A). It returns the
// new process index.
func (cl *Cluster) JoinProcess(contactProc int) int {
	contact := cl.procs[contactProc]
	contactID := contact.Nodes[ldb.Middle]
	if _, ok := cl.nodes[contactID]; !ok {
		panic("core: contact process has departed")
	}
	proc, prefs := cl.spawnProcess()
	for _, ref := range prefs {
		cl.net.Send(ref.ID, contactID, routedMsg{
			RS:    ldb.RouteState{Target: ref.Point.Label, BitsLeft: -1},
			Inner: joinReq{NewNode: ref},
		})
	}
	return int(proc.ID)
}

// LeaveProcess asks all three nodes of a process to leave (§IV-B).
func (cl *Cluster) LeaveProcess(proc int) {
	p := cl.procs[proc]
	if p.Joining {
		panic("core: cannot leave while still joining")
	}
	if p.Left {
		return
	}
	p.Left = true
	for _, id := range p.Nodes {
		if n, ok := cl.nodes[id]; ok {
			n.RequestLeave()
		}
	}
}

// ChurnQuiescent reports whether all joins and leaves have fully settled:
// no joining processes, no relayed joiners, no replacements awaiting
// absorption, no update phase in progress, and every leave request
// executed.
func (cl *Cluster) ChurnQuiescent() bool {
	for _, p := range cl.procs {
		if p.Joining {
			return false
		}
	}
	for _, n := range cl.nodes {
		c := &n.churn
		if c.departed {
			continue
		}
		if c.joining || len(c.joiners) > 0 ||
			c.isReplacement || c.updatePhase || c.leaving ||
			len(c.heldAbsorbs) > 0 || len(c.grantsPending) > 0 {
			return false
		}
	}
	return true
}

// TreeHeight returns the height of the current aggregation tree, measured
// from the global oracle (Corollary 6 predicts O(log n) w.h.p.; the §VII
// latency discussion calls it ATH).
func (cl *Cluster) TreeHeight() int {
	max := 0
	for _, n := range cl.nodes {
		if n.churn.departed || n.churn.joining {
			continue
		}
		depth := 0
		cur := n
		for {
			p, ok := cur.parent()
			if !ok {
				break
			}
			next, live := cl.nodes[p.ID]
			if !live {
				break
			}
			depth++
			if depth > len(cl.nodes) {
				return -1 // should not happen: parent chain cycles
			}
			cur = next
		}
		if depth > max {
			max = depth
		}
	}
	return max
}

// Diagnose reports, for every live node with no wave in flight, which
// children it is still waiting for (children standing idle are not waited
// for), and for every node with waves in flight that holds work it cannot
// fire, which waves those are — the first tool to reach for when a wave
// stalls. A cluster with nothing to do reports nothing.
func (cl *Cluster) Diagnose() []string {
	var out []string
	for _, n := range cl.nodes {
		c := &n.churn
		if c.departed {
			continue
		}
		if len(n.inFlight) > 0 {
			if n.holdsWork(false) && !n.pipelines() {
				out = append(out, fmt.Sprintf("%v holds work behind %d waves in flight, oldest %v", n.self, len(n.inFlight), &n.inFlight[0]))
			}
			continue
		}
		if c.updatePhase {
			out = append(out, fmt.Sprintf("%v in update phase e%d (acks=%d intro=%d votes=%d done=%v)",
				n.self, c.epoch, c.acksLeft, c.introAcksLeft, c.votesPending, c.phaseDone))
			continue
		}
		if n.parentJoining() && n.holdsWork(false) {
			out = append(out, fmt.Sprintf("%v holds its batch: its tree parent is joining or has not confirmed the edge", n.self))
			continue
		}
		var missing []string
		for _, k := range n.children() {
			if !n.hasWaitingFrom(k.ID) && !n.standsIdle(k.ID) {
				missing = append(missing, k.String())
			}
		}
		if len(missing) > 0 {
			out = append(out, fmt.Sprintf("%v (anchor=%v joining=%v) waits for %v",
				n.self, n.anchorRole, c.joining, missing))
		}
	}
	return out
}

// AnchorProcess returns the process ID whose virtual node holds the
// anchor role at bootstrap. The bootstrap topology is a pure function of
// the seed and the process count (labels come from the seeded hasher,
// spawn order is dense), so harnesses that must spare the anchor-hosting
// member — killing the anchor holder is outside the fail-stop recovery
// contract, the role would die with the process — can compute the member
// to protect without starting a cluster.
func AnchorProcess(seed int64, procs int) int32 {
	return int32(bootstrapRing(xrand.NewHasher(seed, "labels"), procs).Min().ID) / 3
}

// AnchorNode returns the node currently holding the anchor role.
func (cl *Cluster) AnchorNode() *Node {
	for _, n := range cl.nodes {
		if n.anchorRole && !n.churn.departed {
			return n
		}
	}
	return nil
}

// StoreSizes returns the number of stored elements per live ring node
// (fairness experiments, Lemma 4 / Corollary 19).
func (cl *Cluster) StoreSizes() []int {
	var out []int
	for _, n := range cl.nodes {
		if !n.churn.departed && !n.churn.joining {
			out = append(out, n.store.Len())
		}
	}
	return out
}

// TotalStored returns the number of elements held across the DHT.
func (cl *Cluster) TotalStored() int {
	total := 0
	for _, n := range cl.nodes {
		if !n.churn.departed {
			total += n.store.Len()
		}
	}
	return total
}

// LiveRing returns the live ring nodes sorted by point (test oracle).
func (cl *Cluster) LiveRing() *ldb.Ring {
	var refs []ldb.Ref
	for _, n := range cl.nodes {
		if !n.churn.departed && !n.churn.joining {
			refs = append(refs, n.self)
		}
	}
	return ldb.NewRing(refs)
}

// VerifyTopology checks, from the global test oracle, that every live
// ring node's pred/succ agree with the sorted ring — the eventual
// correctness condition after churn settles.
func (cl *Cluster) VerifyTopology() error {
	ring := cl.LiveRing()
	for i := 0; i < ring.Len(); i++ {
		n := cl.nodes[ring.At(i).ID]
		if n.pred.ID != ring.Pred(i).ID {
			return fmt.Errorf("node %v pred = %v, ring says %v", n.self, n.pred, ring.Pred(i))
		}
		if n.succ.ID != ring.Succ(i).ID {
			return fmt.Errorf("node %v succ = %v, ring says %v", n.self, n.succ, ring.Succ(i))
		}
	}
	anchors := 0
	for _, n := range cl.nodes {
		if n.anchorRole && !n.churn.departed {
			anchors++
			if n.self.ID != ring.Min().ID {
				return fmt.Errorf("anchor role at %v, leftmost is %v", n.self, ring.Min())
			}
		}
	}
	if anchors != 1 {
		return fmt.Errorf("%d anchor roles in the system", anchors)
	}
	return nil
}
