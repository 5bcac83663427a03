package skueue

import (
	"context"
	"fmt"
	"sync"

	"skueue/internal/batch"
	"skueue/internal/core"
	"skueue/internal/dht"
	"skueue/internal/seqcheck"
)

// AnyProcess lets the client choose the submitting process itself: the
// blocking operations round-robin over live, fully-joined members.
const AnyProcess = -1

// waiter is a parked Settle-style call: the autopilot closes ch once pred
// holds. Both fields are touched only under the client mutex.
type waiter struct {
	pred func() bool
	ch   chan struct{}
}

// Client is a running Skueue deployment. All methods are safe for
// concurrent use from any number of goroutines: the simulated protocol
// engine is single-threaded, so every engine access — submitting requests,
// advancing time, resolving completions — is serialized behind one mutex.
//
// By default a background autopilot goroutine advances the engine whenever
// operations or membership changes are pending, which is what makes the
// blocking methods (Enqueue, Dequeue, Admin().Settle) block instead of
// requiring the caller to pump simulated time. Open with WithManualClock
// to disable the autopilot and drive time deterministically through Step,
// Run, Drain and Settle.
//
// The client names every operation before it exists: submit reserves the
// request ID (core.Cluster.NextReqID), registers the Future under it, and
// only then injects (core.Cluster.Inject). A completion that fires inside
// the inject call — a stack pop combined on the spot with a buffered push —
// therefore finds its future like any other; a completion without one
// belongs to a request injected directly on the Cluster (the workload
// generators do that) and is ignored.
type Client struct {
	manual  bool
	quantum int64
	mode    Mode
	// heapLevels is the priority-level count in heap mode (1 otherwise
	// irrelevant); remote clients adopt it from the server's HelloAck.
	heapLevels int
	// rem is set in WithRemote mode: operations round-trip to a networked
	// cluster member and cl is nil. See remote.go.
	rem *remoteClient

	mu      sync.Mutex
	cl      *core.Cluster
	closed  bool
	rr      int // round-robin cursor for AnyProcess submissions
	futures map[uint64]*Future
	values  map[dht.Element]any
	pending map[uint64]any // enqueue values awaiting element binding
	waiters []*waiter

	wake    chan struct{} // poke the autopilot; buffered, never blocks
	quit    chan struct{} // closed by Close
	stopped chan struct{} // closed when the autopilot exits
}

// Open builds a client with all configured processes as initial members
// and, unless WithManualClock is given, starts the autopilot runner.
//
// With WithRemote the client instead connects to a networked cluster
// member and no simulated cluster is created; see the option's
// documentation for the reduced surface.
func Open(opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.remote != "" {
		return openRemote(o)
	}
	if o.processes < 1 {
		return nil, fmt.Errorf("skueue: WithProcesses(%d): need at least one process", o.processes)
	}
	if o.quantum < 1 {
		return nil, fmt.Errorf("skueue: WithAutopilotQuantum(%d): need at least one round", o.quantum)
	}
	if err := o.wan.shape().Validate(); err != nil {
		return nil, fmt.Errorf("skueue: WithWAN: %w", err)
	}
	mode := batch.Queue
	switch o.mode {
	case Stack:
		mode = batch.Stack
	case Heap:
		mode = batch.Heap
		if o.heapLevels < 1 {
			o.heapLevels = 1
		}
	}
	cl, err := core.New(core.Config{
		Processes:             o.processes,
		Seed:                  o.seed,
		Mode:                  mode,
		HeapLevels:            o.heapLevels,
		Async:                 o.async,
		MaxDelay:              o.maxDelay,
		TimeoutEvery:          o.timeoutEvery,
		UpdateThreshold:       o.updateThreshold,
		DisableStage4Wait:     o.noStage4Wait,
		DisableLocalCombining: o.noCombining,
		Shape:                 o.wan.shape(),
	})
	if err != nil {
		return nil, err
	}
	c := &Client{
		manual:     o.manual,
		quantum:    o.quantum,
		mode:       o.mode,
		heapLevels: o.heapLevels,
		cl:         cl,
		futures:    make(map[uint64]*Future),
		values:     make(map[dht.Element]any),
		pending:    make(map[uint64]any),
		wake:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	cl.SetOnComplete(c.onComplete)
	if c.manual {
		close(c.stopped)
	} else {
		go c.autopilot()
	}
	return c, nil
}

// Close shuts the client down: the autopilot exits, parked waiters and
// future Waits return ErrClosed, and every subsequent call fails with
// ErrClosed. Closing twice returns ErrClosed as well.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	close(c.quit)
	c.mu.Unlock()
	<-c.stopped
	if c.rem != nil {
		c.rem.close()
	}
	return nil
}

// onComplete resolves the future of a finished request. It always runs
// with the client mutex held: every code path that advances the engine or
// injects a request holds it.
func (c *Client) onComplete(comp seqcheck.Completion) {
	f := c.futures[comp.ReqID]
	if f == nil {
		return
	}
	delete(c.futures, comp.ReqID)
	f.rounds = comp.Done - comp.Born
	if comp.Kind == seqcheck.Enqueue {
		if v, ok := c.pending[comp.ReqID]; ok {
			c.values[comp.Elem] = v
			delete(c.pending, comp.ReqID)
		}
	} else {
		f.bottom = comp.Bottom
		if !comp.Bottom {
			f.value = c.values[comp.Elem]
			delete(c.values, comp.Elem)
		}
	}
	close(f.done)
}

func (c *Client) checkProcLocked(proc int) error {
	if proc < 0 || proc >= len(c.cl.Processes()) {
		return fmt.Errorf("process %d: %w", proc, ErrNoSuchProcess)
	}
	if c.cl.Processes()[proc].Left {
		return fmt.Errorf("process %d: %w", proc, ErrProcessLeft)
	}
	return nil
}

// pickLocked round-robins over live, fully-joined processes.
func (c *Client) pickLocked() (int, error) {
	procs := c.cl.Processes()
	n := len(procs)
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		if p := procs[idx]; !p.Left && !p.Joining {
			c.rr = (idx + 1) % n
			return idx, nil
		}
	}
	return 0, fmt.Errorf("no live member process: %w", ErrProcessLeft)
}

// submit registers one request's future under a reserved ID and injects it,
// all under the mutex, so a synchronous completion (stack local combining)
// finds the future in place. priOp marks a priority-API submission (EnqueuePri /
// DequeueMin); the flavour must match the client's mode, so priorities
// can neither be dropped silently on a queue nor invented on a heap.
func (c *Client) submit(kind seqcheck.Kind, proc int, pri int32, priOp bool, value any) (*Future, error) {
	if priOp != (c.mode == Heap) {
		return nil, fmt.Errorf("%w: %v flavour against a %v client", ErrWrongMode, flavourName(kind, priOp), c.mode)
	}
	if priOp && kind == seqcheck.Enqueue && (pri < 0 || int(pri) >= c.heapLevels) {
		return nil, fmt.Errorf("skueue: priority %d outside [0,%d)", pri, c.heapLevels)
	}
	if c.rem != nil {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		return c.rem.submit(kind, proc, pri, priOp, value)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	p := proc
	if p == AnyProcess {
		var err error
		if p, err = c.pickLocked(); err != nil {
			return nil, err
		}
	} else if err := c.checkProcLocked(p); err != nil {
		return nil, err
	}
	f := &Future{c: c, kind: kind, id: c.cl.NextReqID(), done: make(chan struct{})}
	if kind == seqcheck.Enqueue {
		c.pending[f.id] = value
	}
	c.futures[f.id] = f
	c.cl.Inject(c.cl.Client(p), core.Op{ReqID: f.id, IsDeq: kind != seqcheck.Enqueue, Pri: pri})
	return f, nil
}

// flavourName renders an operation flavour for wrong-mode errors.
func flavourName(kind seqcheck.Kind, priOp bool) string {
	switch {
	case priOp && kind == seqcheck.Enqueue:
		return "EnqueuePri"
	case priOp:
		return "DequeueMin"
	case kind == seqcheck.Enqueue:
		return "Enqueue"
	default:
		return "Dequeue"
	}
}

// block completes a submitted future: under the autopilot it waits; under
// the manual clock it pumps the engine inline on the calling goroutine
// (which keeps single-threaded use fully deterministic).
//
//skueue:awaits-future
func (c *Client) block(ctx context.Context, f *Future) error {
	if c.manual {
		return c.pumpUntil(ctx, f.done)
	}
	c.poke()
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctxError(ctx.Err())
	case <-c.quit:
		return ErrClosed
	}
}

// pumpUntil drives the engine quantum by quantum until done closes or the
// context ends (manual-clock mode only).
func (c *Client) pumpUntil(ctx context.Context, done <-chan struct{}) error {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return ctxError(err)
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		select {
		case <-done:
			c.mu.Unlock()
			return nil
		default:
		}
		c.cl.Run(c.quantum)
		c.mu.Unlock()
	}
}

// await blocks until pred holds under the mutex. Autopilot mode parks a
// waiter the runner re-evaluates after every quantum; manual mode pumps
// inline.
func (c *Client) await(ctx context.Context, pred func() bool) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if pred() {
		c.mu.Unlock()
		return nil
	}
	if c.manual {
		// Pump quantum by quantum, releasing the mutex in between (like
		// pumpUntil) so concurrent calls and Close are not starved.
		for {
			if pred() {
				c.mu.Unlock()
				return nil
			}
			c.cl.Run(c.quantum)
			c.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return ctxError(err)
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return ErrClosed
			}
		}
	}
	w := &waiter{pred: pred, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	c.poke()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		c.removeWaiter(w)
		select {
		case <-w.ch: // satisfied concurrently with cancellation
			return nil
		default:
		}
		return ctxError(ctx.Err())
	case <-c.quit:
		c.removeWaiter(w)
		return ErrClosed
	}
}

func (c *Client) removeWaiter(w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// poke nudges the autopilot; the buffered channel makes it non-blocking
// and coalesces bursts.
func (c *Client) poke() {
	if c.manual {
		return
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// autopilot is the background runner: whenever requests, waiters or
// membership changes are pending it advances the engine one quantum at a
// time, resolving futures and waiters as completions fire.
func (c *Client) autopilot() {
	defer close(c.stopped)
	for {
		select {
		case <-c.quit:
			return
		case <-c.wake:
		}
		for {
			select {
			case <-c.quit:
				return
			default:
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return
			}
			if c.idleLocked() {
				c.mu.Unlock()
				break
			}
			c.cl.Run(c.quantum)
			c.notifyWaitersLocked()
			c.mu.Unlock()
		}
	}
}

func (c *Client) idleLocked() bool {
	return c.cl.Finished() >= c.cl.Issued() &&
		len(c.waiters) == 0 &&
		c.cl.ChurnQuiescent()
}

func (c *Client) notifyWaitersLocked() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.pred() {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// ---- Queue operations ----

// Enqueue submits an ENQUEUE(value) at a client-chosen live process and
// blocks until the operation completes, the context ends, or the client
// closes. Safe to call from many goroutines at once.
//
// Like any distributed queue client, a context error does not retract the
// request: once submitted, the operation is in flight and will still be
// serialized, so an enqueue abandoned on timeout can land in the queue
// (and blindly retrying it can duplicate the value). Use EnqueueAsync and
// keep the Future when that distinction matters.
func (c *Client) Enqueue(ctx context.Context, value any) error {
	return c.EnqueueAt(ctx, AnyProcess, value)
}

// EnqueueAt is Enqueue pinned to a specific process (AnyProcess defers the
// choice to the client).
func (c *Client) EnqueueAt(ctx context.Context, proc int, value any) error {
	f, err := c.submit(seqcheck.Enqueue, proc, 0, false, value)
	if err != nil {
		return err
	}
	return c.block(ctx, f)
}

// Dequeue submits a DEQUEUE at a client-chosen live process and blocks
// until it completes. It returns the dequeued value and ok=true, or
// ok=false when the operation was serialized against an empty structure
// (the paper's ⊥ answer).
//
// As with Enqueue, a context error does not retract the in-flight
// request: an abandoned dequeue still takes its turn in the serialization
// and consumes an element no caller will receive. Use DequeueAsync and
// keep the Future when the element must not be lost on timeout.
func (c *Client) Dequeue(ctx context.Context) (any, bool, error) {
	return c.DequeueAt(ctx, AnyProcess)
}

// DequeueAt is Dequeue pinned to a specific process.
func (c *Client) DequeueAt(ctx context.Context, proc int) (any, bool, error) {
	f, err := c.submit(seqcheck.Dequeue, proc, 0, false, nil)
	if err != nil {
		return nil, false, err
	}
	if err := c.block(ctx, f); err != nil {
		return nil, false, err
	}
	return f.Value(), !f.Empty(), nil
}

// Push is the stack-flavoured alias of Enqueue.
func (c *Client) Push(ctx context.Context, value any) error { return c.Enqueue(ctx, value) }

// Pop is the stack-flavoured alias of Dequeue.
func (c *Client) Pop(ctx context.Context) (any, bool, error) { return c.Dequeue(ctx) }

// EnqueueAsync submits an ENQUEUE (PUSH) at the given process without
// waiting; the returned Future resolves as the simulation advances.
func (c *Client) EnqueueAsync(proc int, value any) (*Future, error) {
	f, err := c.submit(seqcheck.Enqueue, proc, 0, false, value)
	if err != nil {
		return nil, err
	}
	c.poke()
	return f, nil
}

// DequeueAsync submits a DEQUEUE (POP) at the given process without
// waiting.
func (c *Client) DequeueAsync(proc int) (*Future, error) {
	f, err := c.submit(seqcheck.Dequeue, proc, 0, false, nil)
	if err != nil {
		return nil, err
	}
	c.poke()
	return f, nil
}

// PushAsync is the stack-flavoured alias of EnqueueAsync.
func (c *Client) PushAsync(proc int, value any) (*Future, error) {
	return c.EnqueueAsync(proc, value)
}

// PopAsync is the stack-flavoured alias of DequeueAsync.
func (c *Client) PopAsync(proc int) (*Future, error) { return c.DequeueAsync(proc) }

// ---- Priority operations (heap mode, WithHeap) ----

// EnqueuePri submits an ENQUEUE(value) at priority level pri (0 is the
// most urgent) at a client-chosen live process and blocks until it
// completes. Only valid on a heap client: any other mode returns
// ErrWrongMode, as does a plain Enqueue on a heap client.
func (c *Client) EnqueuePri(ctx context.Context, pri int32, value any) error {
	return c.EnqueuePriAt(ctx, AnyProcess, pri, value)
}

// EnqueuePriAt is EnqueuePri pinned to a specific process.
func (c *Client) EnqueuePriAt(ctx context.Context, proc int, pri int32, value any) error {
	f, err := c.submit(seqcheck.Enqueue, proc, pri, true, value)
	if err != nil {
		return err
	}
	return c.block(ctx, f)
}

// DequeueMin submits a DEQUEUE-MIN at a client-chosen live process and
// blocks until it completes: it returns the oldest element of the lowest
// non-empty priority level, or ok=false for ⊥. Heap clients only
// (ErrWrongMode otherwise).
func (c *Client) DequeueMin(ctx context.Context) (any, bool, error) {
	return c.DequeueMinAt(ctx, AnyProcess)
}

// DequeueMinAt is DequeueMin pinned to a specific process.
func (c *Client) DequeueMinAt(ctx context.Context, proc int) (any, bool, error) {
	f, err := c.submit(seqcheck.Dequeue, proc, 0, true, nil)
	if err != nil {
		return nil, false, err
	}
	if err := c.block(ctx, f); err != nil {
		return nil, false, err
	}
	return f.Value(), !f.Empty(), nil
}

// EnqueuePriAsync submits an ENQUEUE at the given priority level without
// waiting.
func (c *Client) EnqueuePriAsync(proc int, pri int32, value any) (*Future, error) {
	f, err := c.submit(seqcheck.Enqueue, proc, pri, true, value)
	if err != nil {
		return nil, err
	}
	c.poke()
	return f, nil
}

// DequeueMinAsync submits a DEQUEUE-MIN without waiting.
func (c *Client) DequeueMinAsync(proc int) (*Future, error) {
	f, err := c.submit(seqcheck.Dequeue, proc, 0, true, nil)
	if err != nil {
		return nil, err
	}
	c.poke()
	return f, nil
}

// HeapLevels returns the priority-level count of a heap client (1 when
// opened with WithMode(Heap); 0 in the other modes).
func (c *Client) HeapLevels() int {
	if c.mode != Heap {
		return 0
	}
	return c.heapLevels
}

// ---- Manual clock (WithManualClock only) ----

// Step advances the simulation by one round (one event when async).
func (c *Client) Step() error {
	if !c.manual {
		return ErrAutoClock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.cl.Step()
	return nil
}

// Run advances the simulation by n rounds (time units when async).
func (c *Client) Run(n int64) error {
	if !c.manual {
		return ErrAutoClock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.cl.Run(n)
	return nil
}

// Drain runs until every submitted operation completed, up to maxTime; it
// reports whether the system fully drained.
func (c *Client) Drain(maxTime int64) (bool, error) {
	if !c.manual {
		return false, ErrAutoClock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, ErrClosed
	}
	return c.cl.Drain(maxTime), nil
}

// Settle runs until all pending joins and leaves finished integrating and
// the overlay is fully consistent, up to maxTime.
func (c *Client) Settle(maxTime int64) (bool, error) {
	if !c.manual {
		return false, ErrAutoClock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, ErrClosed
	}
	return c.cl.Engine().RunUntil(c.settledLocked, maxTime), nil
}

// settledLocked is the single definition of "churn has settled": no
// pending joins or leaves and a fully consistent overlay.
func (c *Client) settledLocked() bool {
	return c.cl.ChurnQuiescent() && c.cl.VerifyTopology() == nil
}

// ---- Introspection ----

// Check verifies the entire execution so far against the paper's
// sequential-consistency definition (Definition 1). On a remote client it
// fetches and merges the completion histories of every cluster member
// (completions are recorded where they finish) and runs the same checker
// locally — so a networked execution is verified end to end, across all
// members and all clients. A WithSession client additionally verifies its
// own session guarantees against the merged history: every outcome it was
// delivered exists exactly once, at the rank the history assigned, and in
// the session's dependency order (seqcheck.CheckSession).
func (c *Client) Check() error {
	if c.rem != nil {
		hist, err := c.rem.histories()
		if err != nil {
			return err
		}
		var cerr error
		switch c.mode {
		case Stack:
			cerr = seqcheck.Check(seqcheck.Stack, hist)
		case Heap:
			cerr = seqcheck.CheckPriority(hist, c.heapLevels)
		default:
			cerr = seqcheck.Check(seqcheck.Queue, hist)
		}
		if cerr != nil {
			return cerr
		}
		return c.rem.checkSession(hist)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.CheckConsistency()
}

// History returns the execution's completion history: on a remote client
// the freshly fetched and merged histories of every cluster member (the
// same data Check verifies), on an embedded cluster the local record.
// Harnesses use it to dump the execution when a check fails.
func (c *Client) History() (*seqcheck.History, error) {
	if c.rem != nil {
		return c.rem.histories()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.History(), nil
}

// Stats summarizes completed operations.
type Stats struct {
	Total     int
	Enqueues  int
	Dequeues  int
	Bottoms   int     // dequeues answered ⊥
	Combined  int     // stack operations completed by local combining
	AvgRounds float64 // mean request latency in simulated rounds
	MaxRounds int64
}

// Stats returns a snapshot of the completed-operation statistics. On a
// remote client they cover the whole cluster (merged member histories);
// fetch errors yield the zero Stats.
func (c *Client) Stats() Stats {
	if c.rem != nil {
		hist, err := c.rem.histories()
		if err != nil {
			return Stats{}
		}
		st := seqcheck.Summarize(hist)
		return Stats{
			Total:     st.Total,
			Enqueues:  st.Enqueues,
			Dequeues:  st.Dequeues,
			Bottoms:   st.Bottoms,
			Combined:  st.Combined,
			AvgRounds: st.AvgRounds,
			MaxRounds: st.MaxRounds,
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := seqcheck.Summarize(c.cl.History())
	return Stats{
		Total:     st.Total,
		Enqueues:  st.Enqueues,
		Dequeues:  st.Dequeues,
		Bottoms:   st.Bottoms,
		Combined:  st.Combined,
		AvgRounds: st.AvgRounds,
		MaxRounds: st.MaxRounds,
	}
}

// Metrics exposes protocol-level counters (batch sizes, waves, routing).
type Metrics struct {
	BatchesSent   int64
	MaxBatchRuns  int
	WavesAssigned int64
	// EmptyWaves and Declines tell how often a node stood idle instead of
	// reporting an empty batch; both are zero under the simulator, where
	// every node reports every round.
	EmptyWaves    int64
	Declines      int64
	UpdatePhases  int64
	ParkedGets    int64
	CombinedOps   int64
	ForwardedMsgs int64
	RouteMsgs     int64
	RouteHops     int64
	MaxRouteHops  int // longest LDB routing path
	MaxQueueSize  int64
	AvgRouteHops  float64 // mean LDB routing path length
	// MaxWavesInFlight is the deepest pipeline a node reached (waves fired
	// and not yet served) and PipelinedFires the fires made with a wave
	// already in flight; a stack never pipelines.
	MaxWavesInFlight int
	PipelinedFires   int64
}

// Metrics returns a snapshot of the protocol metrics (zero on a remote
// client, whose members keep their own).
func (c *Client) Metrics() Metrics {
	if c.rem != nil {
		return Metrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.cl.Metrics()
	return Metrics{
		BatchesSent:   m.BatchesSent,
		MaxBatchRuns:  m.MaxBatchRuns,
		WavesAssigned: m.WavesAssigned,
		EmptyWaves:    m.EmptyWaves,
		Declines:      m.Declines,
		UpdatePhases:  m.UpdatePhases,
		ParkedGets:    m.ParkedGets,
		CombinedOps:   m.CombinedOps,
		ForwardedMsgs: m.ForwardedMsgs,
		RouteMsgs:     m.RouteMsgs,
		RouteHops:     m.RouteHops,
		MaxRouteHops:  m.MaxRouteHops,
		MaxQueueSize:  m.MaxQueueSize,
		AvgRouteHops:  m.AvgRouteHops(),

		MaxWavesInFlight: m.MaxWavesInFlight,
		PipelinedFires:   m.PipelinedFires,
	}
}

// Mode returns the configured semantics.
func (c *Client) Mode() Mode { return c.mode }

// NumProcesses returns the number of processes ever part of the system
// (including departed ones; their indices stay valid for bookkeeping).
// Zero on a remote client.
func (c *Client) NumProcesses() int {
	if c.rem != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cl.Processes())
}

// Stored returns the number of elements currently held in the DHT (zero
// on a remote client).
func (c *Client) Stored() int {
	if c.rem != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.TotalStored()
}

// Now returns the current simulated time (zero on a remote client).
func (c *Client) Now() int64 {
	if c.rem != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Engine().Now()
}

// Cluster exposes the underlying protocol cluster for experiments and
// advanced inspection (nil on a remote client). The cluster is not
// concurrency-safe: use it only in WithManualClock mode, from one
// goroutine at a time.
func (c *Client) Cluster() *core.Cluster { return c.cl }
