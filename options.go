package skueue

import (
	"time"

	"skueue/internal/transport"
	"skueue/internal/wire"
)

// Mode selects the data-structure semantics.
type Mode int

// Available semantics: FIFO queue (paper §III), LIFO stack (§VI), and a
// bounded-constant-priority heap (Skeap-style: a fixed number of priority
// levels, FIFO within each level; see WithHeap).
const (
	Queue Mode = iota
	Stack
	Heap
)

func (m Mode) String() string {
	switch m {
	case Stack:
		return "stack"
	case Heap:
		return "heap"
	default:
		return "queue"
	}
}

// options collects the Open configuration; every Option mutates it.
type options struct {
	processes       int
	seed            int64
	mode            Mode
	heapLevels      int
	async           bool
	manual          bool
	maxDelay        int
	timeoutEvery    int
	updateThreshold int
	noStage4Wait    bool
	noCombining     bool
	quantum         int64
	remote          string
	wan             WANProfile
	session         string
	dialTimeout     time.Duration
	reconnRetries   int
	reconnBackoff   time.Duration
}

func defaultOptions() options {
	return options{
		processes: 4,
		quantum:   32,
	}
}

// Option configures a Client at Open time.
type Option func(*options)

// WithProcesses sets the initial number of member processes (default 4,
// minimum 1). Each process emulates three virtual nodes (Definition 2).
func WithProcesses(n int) Option { return func(o *options) { o.processes = n } }

// WithSeed makes the whole run reproducible: labels, keys, scheduling and
// any workload randomness all derive from this seed.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithMode selects queue (default), stack or heap semantics. Heap mode
// opened through WithMode uses a single priority level; use WithHeap to
// set the level count.
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// WithHeap selects heap semantics with the given number of priority
// levels (minimum 1): EnqueuePri tags each element with a level in
// [0, levels), and DequeueMin returns the oldest element of the lowest
// non-empty level. Plain Enqueue/Dequeue return ErrWrongMode on a heap
// client — the priority API is the only way to touch a heap, so a caller
// can never silently drop priorities.
func WithHeap(levels int) Option {
	return func(o *options) {
		o.mode = Heap
		if levels < 1 {
			levels = 1
		}
		o.heapLevels = levels
	}
}

// WithAsync runs the fully asynchronous message-passing model (§I-B)
// instead of the synchronous round model the evaluation uses.
func WithAsync() Option { return func(o *options) { o.async = true } }

// WithAsyncDelays tunes the asynchronous scheduler: maxDelay bounds each
// message's delivery delay, timeoutEvery bounds the gap between TIMEOUT
// firings. Zero values keep the engine defaults.
func WithAsyncDelays(maxDelay, timeoutEvery int) Option {
	return func(o *options) {
		o.maxDelay = maxDelay
		o.timeoutEvery = timeoutEvery
	}
}

// WithUpdateThreshold sets how many pending join/leave requests the anchor
// accumulates before starting an update phase (default 1).
func WithUpdateThreshold(n int) Option { return func(o *options) { o.updateThreshold = n } }

// WithManualClock disables the autopilot runner: simulated time advances
// only through Step, Run, Drain and Settle on the client (or through the
// blocking methods, which drive the clock inline on the calling
// goroutine). This is the deterministic mode the experiment harness, the
// sim CLI and the seqcheck-driven tests use.
func WithManualClock() Option { return func(o *options) { o.manual = true } }

// WithAutopilotQuantum sets how many rounds (time units when async) the
// autopilot advances per scheduling slice while work is pending
// (default 32). Smaller values reduce blocking-call latency jitter;
// larger values reduce lock traffic.
func WithAutopilotQuantum(rounds int64) Option { return func(o *options) { o.quantum = rounds } }

// WithoutStage4Wait disables the §VI completion wait (unsafe ablation: the
// paper's counterexample becomes reachable and sequential consistency can
// break under asynchrony). See DESIGN.md §7.
func WithoutStage4Wait() Option { return func(o *options) { o.noStage4Wait = true } }

// WithoutLocalCombining disables the §VI local push/pop combining (unsafe
// ablation: stack batches grow and Theorem 20 no longer holds). See
// DESIGN.md §7.
func WithoutLocalCombining() Option { return func(o *options) { o.noCombining = true } }

// WANProfile describes wide-area delivery conditions injected into the
// simulated cluster: every message is charged extra delay sampled from
// the profile on top of the model's native scheduling. Loss is modeled as
// retransmission latency (k lost attempts cost k RTOs), so the reliable
// channel the protocol assumes is preserved. RoundLength calibrates the
// simulated wall-clock length of one synchronous round (default 1ms) and
// so how many rounds a given latency spans.
type WANProfile struct {
	// Latency is the base one-way delay per message.
	Latency time.Duration
	// Jitter widens each delay by a uniform sample from [0, Jitter).
	Jitter time.Duration
	// Loss is the per-attempt loss probability in [0, 1); each lost
	// attempt charges one retransmission timeout of extra delay.
	Loss float64
	// RTO overrides the retransmission timeout (default 4×Latency).
	RTO time.Duration
	// RoundLength is the simulated duration of one round (default 1ms).
	RoundLength time.Duration
}

func (w WANProfile) shape() transport.Shape {
	return transport.Shape{
		Latency: w.Latency,
		Jitter:  w.Jitter,
		Loss:    w.Loss,
		RTO:     w.RTO,
		Round:   w.RoundLength,
	}
}

// Enabled reports whether the profile shapes anything; the zero profile
// is a no-op.
func (w WANProfile) Enabled() bool { return w.shape().Enabled() }

// WithWAN runs the simulated cluster under a WAN delivery profile
// (latency, jitter, loss as retransmission delay). Works in both the
// synchronous and asynchronous models; ignored by WithRemote clients,
// where shaping belongs to the servers (skueue-server -wan-latency,
// -wan-jitter, -wan-loss).
func WithWAN(p WANProfile) Option { return func(o *options) { o.wan = p } }

// WithRemote connects the client to a networked Skueue cluster member
// (started with cmd/skueue-server) at the given address instead of
// hosting a simulated cluster in-process. Enqueue/Dequeue (and the async
// variants) round-trip over TCP; Check fetches and merges the completion
// histories of all cluster members. Values must be gob-encodable (see
// RegisterValue). Simulation-only surfaces — process pinning, Admin,
// manual clock, Cluster introspection — return ErrUnsupported (which
// wraps ErrRemote) or zero values; of the other Open options only
// WithSession, WithDialTimeout and WithReconnect apply.
func WithRemote(addr string) Option { return func(o *options) { o.remote = addr } }

// WithSession gives a WithRemote client a durable session under the
// given client-chosen ID: the member journals a session record ahead of
// the session's first operation and retains every journaled outcome
// until the client acknowledges its delivery, so a lost connection no
// longer fails pending futures — the client reconnects (see
// WithReconnect), resumes the session at the owning member (finding its
// new address through the cluster's address book if it restarted), and
// collects each outcome exactly once. Read-your-writes and monotonic
// dequeues hold across the failover and are verified per session by
// Client.Check. The ID must be unique per logical client — reusing a
// live session's ID detaches its previous connection. Empty (the zero
// value, and the default) keeps the ephemeral behavior: a lost
// connection drains every pending future with ErrUnreachable.
func WithSession(id string) Option { return func(o *options) { o.session = id } }

// WithDialTimeout bounds each TCP dial a WithRemote client performs —
// the initial connection, session reconnects, and the per-member history
// fetches behind Check and Stats. Zero (the default) selects 10s.
func WithDialTimeout(d time.Duration) Option { return func(o *options) { o.dialTimeout = d } }

// WithReconnect tunes the reconnect loop of a WithSession client:
// maxRetries bounds how many resume attempts follow a lost connection
// before the client gives up and drains its pending futures with
// ErrUnreachable (marked Indeterminate), and backoff is the base delay
// between attempts — exponential with jitter, capped at 2s. Zero values
// select the defaults (8 retries, 100ms base). Ephemeral clients (no
// WithSession) ignore it: they never reconnect.
func WithReconnect(maxRetries int, backoff time.Duration) Option {
	return func(o *options) {
		o.reconnRetries = maxRetries
		o.reconnBackoff = backoff
	}
}

// RegisterValue registers a concrete user value type for transmission to
// a remote cluster (the wire codec is encoding/gob; common scalar and
// composite types are pre-registered).
func RegisterValue(v any) { wire.RegisterValue(v) }
