// Package wire is the codec of the networked transport: length-prefixed
// binary frames whose bodies are encoding/gob streams, the message
// envelope exchanged between cluster members, and the small
// request/response protocol spoken by remote clients.
//
// # Framing
//
// Every frame on a connection is
//
//	[4-byte big-endian body length][body]
//
// with the body produced by a per-connection gob encoder. gob streams are
// stateful — type descriptors are transmitted once per stream — so the
// encoder and decoder persist for the lifetime of the connection while the
// explicit length prefix provides cheap message delimiting, a hard size
// guard (MaxFrame) against corrupt or hostile peers, and the ability to
// skip or log frames without decoding them.
//
// # Envelopes and link sequencing
//
// Member-to-member connections carry a Hello handshake followed by
// Envelope frames: (from, to, payload) triples whose payloads are the
// protocol messages of internal/core, registered with Register by
// core.RegisterWireTypes. Client connections carry a Hello followed by the
// Cli* request/response types below.
//
// Envelope and BookUpdate frames additionally carry a per-link sequence
// number (Seq) and a piggybacked cumulative acknowledgment (Ack) for the
// reverse direction of the member pair; the standalone Ack frame covers
// idle links. Together with the last-acknowledged sequence exchanged in
// HelloAck and the sender boot epoch in Hello, they give the TCP backend
// exactly-once delivery across arbitrary connection resets (see
// internal/transport/tcp, "Delivery guarantees").
//
// # Values
//
// Remote clients transmit user values as opaque byte blobs produced by
// EncodeValue. Values must be gob-encodable; concrete types stored inside
// interface values must be registered — common scalar and composite types
// are pre-registered, applications add their own with RegisterValue.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"skueue/internal/seqcheck"
	"skueue/internal/transport"
)

// ErrEncode marks a Write failure that happened before any byte reached
// the socket (gob encoding error, frame over MaxFrame). Such failures are
// deterministic: retrying the same value on a fresh connection fails
// identically, so link layers must drop the frame instead of redialing.
var ErrEncode = errors.New("wire: message not encodable")

// MaxFrame is the largest frame body accepted from a connection. It
// comfortably exceeds any protocol message (the largest are leave handoffs
// carrying DHT fragments) while bounding memory under corruption.
const MaxFrame = 64 << 20

// Register makes a concrete type transmittable inside the `any`-typed
// fields of envelopes and protocol messages (gob interface encoding).
// It is the package's single registration point so that all encoders and
// decoders agree; internal/core registers its message set through it.
func Register(v any) { gob.Register(v) }

func init() {
	// Common value types for remote client payloads.
	Register("")
	Register(0)
	Register(int64(0))
	Register(uint64(0))
	Register(float64(0))
	Register(false)
	Register([]byte(nil))
	Register([]any(nil))
	Register(map[string]any(nil))
}

// ---- Member-to-member protocol ----

// MemberInfo describes one cluster member for the address book: its index,
// its listen address, and the process IDs it hosts. Node addresses resolve
// to members through the pid encoding (see internal/transport/tcp).
type MemberInfo struct {
	Index int32
	Addr  string
	Pids  []int32
}

// Hello is the first frame of every connection, in both directions on
// peer links (each side introduces itself) and client-to-server.
type Hello struct {
	// Kind is "peer" or "client".
	Kind string
	// Me describes the dialing member (peer connections only).
	Me MemberInfo
	// Book is the sender's current address book (peer connections only);
	// the receiver merges it.
	Book []MemberInfo
	// Boot is the dialing member's boot epoch (peer connections only). A
	// receiver that knew the member under a different epoch resets its
	// per-sender delivery sequence: the sender restarted and numbers its
	// link frames from zero again.
	Boot int64
	// Session is the client-chosen durable session ID (client
	// connections). Empty selects an ephemeral connection: pending
	// operations die with the connection. Non-empty, the member retains
	// journaled outcomes addressable by (session, CliEnqueue/CliDequeue
	// .Seq) until the client acknowledges their delivery.
	Session string
	// SessionResume marks a session reconnect: the answering member must
	// already hold the session. Without it an unknown session is created
	// fresh (first contact); with it the member answers
	// HelloAck.SessionResumed false instead, so a client redialing after
	// a failover can never silently start an empty session at a member
	// that does not own its state.
	SessionResume bool
	// SessionAck is the client's cumulative delivered-outcome cursor:
	// every session operation with Seq <= SessionAck has had its outcome
	// delivered, so the member may prune outcomes it retains at or below
	// it. See also CliSessionAck.
	SessionAck uint64
}

// HelloAck answers a Hello: the receiver's address book and, for clients,
// the cluster parameters a remote client needs.
type HelloAck struct {
	Book []MemberInfo
	// Mode is "queue", "stack" or "heap" (client connections).
	Mode string
	// HeapLevels is the number of priority levels (heap mode only): the
	// client validates EnqueuePri levels locally against it.
	HeapLevels int32
	// Index is the answering member's index.
	Index int32
	// AckSeq is the receiver's cumulative acknowledgment for the dialing
	// member's link (peer connections): every sequenced frame with
	// Seq <= AckSeq is durably delivered and must not be retransmitted; the
	// dialer replays everything newer.
	AckSeq uint64
	// SessionResumed reports that the answering member owns the presented
	// session and re-attached it (client connections with
	// Hello.SessionResume). False on a resume means the member does not
	// hold the session — the client should locate the owner through Book
	// instead; retained outcomes follow over this connection when true.
	SessionResumed bool
	// SessionSeq is the session's operation-sequence high-water mark:
	// the largest per-session Seq the member has accepted, acknowledged
	// or retained. A client that re-attaches without its own in-memory
	// counter (a fresh process adopting a durable session) must continue
	// numbering above it — sequences at or below are dead history the
	// member silently deduplicates, so reusing them loses the op.
	SessionSeq uint64
}

// Envelope is one protocol message in flight between members.
type Envelope struct {
	From, To transport.NodeID
	Payload  any
	// Seq is the per-link sequence number, assigned by the sending link in
	// transmission order (1, 2, ...). Zero means unsequenced (local
	// delivery, which never crosses a connection).
	Seq uint64
	// Ack piggybacks the sender's cumulative acknowledgment for the
	// reverse direction of this member pair.
	Ack uint64
}

// BookUpdate pushes an updated address book over an established peer link
// (sent by the seed when a member joins). It shares the link's sequence
// space with envelopes, so a book update lost to a connection reset is
// retransmitted like any protocol message.
type BookUpdate struct {
	Book []MemberInfo
	Seq  uint64
	Ack  uint64
}

// Ack is a standalone cumulative acknowledgment, written on the reverse
// path of a peer connection when no outbound traffic is available to
// piggyback on: every sequenced frame with Seq <= Seq is delivered.
type Ack struct {
	Seq uint64
}

// ReplayFence marks the end of a peer link's reconnect replay: every
// frame the sender held unacknowledged when this connection was
// established precedes it on the stream. It is unsequenced (a fresh one
// is written on every reconnect) and carries the sender's boot epoch so
// a fence from a stale connection cannot satisfy the receiver. A member
// restarting from a fail-stop crash uses the fences to learn when
// pre-crash traffic has finished arriving and fresh client operations
// can safely be injected again (see the replay gate in internal/server:
// a new operation joining a wave whose serve was already computed by the
// crashed incarnation would diverge the replay and wedge the member).
type ReplayFence struct {
	Boot int64
}

// ---- Client protocol ----

// CliEnqueue submits an ENQUEUE (PUSH) of an encoded value. Seq is the
// client's correlation number — on a session connection, the per-session
// operation sequence the member dedupes re-presented operations by —
// echoed in the CliDone. Ack piggybacks the session's delivered-outcome
// cursor (see Hello.SessionAck); zero-valued and ignored on ephemeral
// connections.
type CliEnqueue struct {
	Seq   uint64
	Value []byte
	Ack   uint64
	// Pri is the priority level of an EnqueuePri (heap clusters); PriOp
	// marks the operation as a priority-API submission. The member rejects
	// a PriOp against a queue/stack cluster — and a plain enqueue against a
	// heap cluster — with CliDone.WrongMode, so a client talking to a
	// cluster of the wrong flavour fails loudly instead of silently
	// reinterpreting priorities.
	Pri   int32
	PriOp bool
}

// CliDequeue submits a DEQUEUE (POP). Seq and Ack as in CliEnqueue; PriOp
// marks a DequeueMin (heap clusters), policed like CliEnqueue.PriOp.
type CliDequeue struct {
	Seq   uint64
	Ack   uint64
	PriOp bool
}

// CliSessionAck advances a durable session's delivered-outcome cursor
// when no operation is available to piggyback it on: every session
// operation with Seq <= Ack had its outcome delivered, and the member
// prunes the outcomes it retains at or below it. Cursors are cumulative;
// a regression is ignored.
type CliSessionAck struct {
	Ack uint64
}

// CliDone reports a completed client operation. It is the client-visible
// outcome frame: the fields below marked as result-bearing must never be
// released to a session before the covering journal record could sync
// (see internal/analysis/releaseorder).
//
//skueue:client-outcome
type CliDone struct {
	Seq uint64
	// ReqID is the operation's durable, member-tagged request identity
	// (zero for submission errors that never reached injection). Servers
	// with a state directory journal a completion under this identity
	// before releasing the CliDone, which is what makes the operation's
	// outcome exactly-once across a fail-stop restart of the member.
	ReqID uint64
	// Bottom marks a dequeue serialized against an empty structure (⊥).
	//
	//skueue:client-outcome
	Bottom bool
	// Value is the dequeued encoded value (dequeues only).
	//
	//skueue:client-outcome
	Value []byte
	// Rounds is the request latency in transport ticks.
	//
	//skueue:client-outcome
	Rounds int64
	// Rank is the operation's serialization rank (core value()), when the
	// completion path knows it: completions carry it, bare put-acks do not
	// (seqcheck.NoValue there). Session clients track it in their
	// per-session version vector to verify read-your-writes / monotonic
	// dequeues across failover.
	//
	//skueue:client-outcome
	Rank int64
	// Err carries a server-side submission error, empty on success.
	Err string
	// WrongMode marks a submission rejected because the operation's
	// flavour does not match the cluster's mode (a priority operation on a
	// queue/stack cluster, or a plain one on a heap cluster). The client
	// layer surfaces it as ErrWrongMode. The rejection is deterministic —
	// it depends only on the immutable cluster mode — so it needs no
	// journaled identity and is safe to re-derive on a session replay.
	WrongMode bool
	// Unreachable marks an operation abandoned because a cluster member
	// stayed unreachable past the server's give-up timeout (fail-stop
	// detection); the client layer surfaces it as ErrUnreachable with an
	// indeterminate future.
	Unreachable bool
}

// CliHistory asks a member for its local completion history; the caller
// merges the histories of all members before running the sequential-
// consistency checker (completions are recorded where they finish, which
// for enqueues is the member storing the element).
type CliHistory struct{}

// CliHistoryResp returns a member's local completion history.
type CliHistoryResp struct {
	Ops []seqcheck.Completion
}

// CliJoin asks the seed member to admit a new member into the cluster —
// or, with Rejoin set, to re-admit a member restarting from a snapshot.
type CliJoin struct {
	// Addr is the joining member's listen address.
	Addr string
	// Rejoin marks a fail-stop restart: the member already holds an index
	// and process IDs (restored from its snapshot) and only needs the seed
	// to re-broadcast its — possibly new — address.
	Rejoin bool
	// Index and Pids identify the restarting member (Rejoin only).
	Index int32
	Pids  []int32
}

// CliJoinResp carries the assignment the seed made for a joining member.
type CliJoinResp struct {
	// Index and Pid are the new member's member index and first process ID.
	Index int32
	Pid   int32
	// Seed, Mode and HeapLevels mirror the cluster configuration so the
	// joiner derives identical labels and hashes.
	Seed       int64
	Mode       string
	HeapLevels int32
	// Book is the cluster's address book including the new member.
	Book []MemberInfo
	// Contact is the node the joiner routes its JOIN requests through.
	Contact transport.NodeID
	// Err reports a rejected join, empty on success.
	Err string
}

// ---- Connection ----

// Conn wraps a net.Conn with the framing and the persistent gob codec.
// Reads and writes are independently locked, so one reader goroutine and
// any number of writers may share it.
type Conn struct {
	c net.Conn

	//skueue:lock 80 io
	wmu sync.Mutex
	//skueue:guarded-by wmu
	wbuf bytes.Buffer
	//skueue:guarded-by wmu
	enc *gob.Encoder

	//skueue:lock 81 io
	rmu sync.Mutex
	//skueue:guarded-by rmu
	fr *frameReader
	//skueue:guarded-by rmu
	dec *gob.Decoder
}

// readBuffer sizes the buffer between the socket and the frame reader: one
// read system call then fetches every frame the kernel already holds (a
// batched write arrives as one segment) instead of a header read plus a
// body read per frame. Larger bodies bypass it.
const readBuffer = 16 << 10

// flushAt bounds what WriteBatch accumulates before it writes: a long
// replay goes out in chunks of about this size instead of growing the
// write buffer to the whole backlog.
const flushAt = 64 << 10

// NewConn wraps an established network connection.
//
//skueue:owned-by caller -- the Conn is under construction and not yet shared with any goroutine
func NewConn(c net.Conn) *Conn {
	w := &Conn{c: c}
	w.enc = gob.NewEncoder(&w.wbuf)
	w.fr = &frameReader{r: bufio.NewReaderSize(c, readBuffer)}
	w.dec = gob.NewDecoder(w.fr)
	return w
}

// Write encodes v into the next frame and sends it with one write call.
//
//skueue:blocking -- synchronous network write; sessions and links call it from writer goroutines, never the runner
func (w *Conn) Write(v any) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.wbuf.Reset()
	if err := w.appendFrameLocked(v); err != nil {
		return err
	}
	_, err := w.c.Write(w.wbuf.Bytes())
	return err
}

// WriteBatch encodes every value into a frame of its own, in order, and
// sends them with as few write calls as flushAt allows — one, for the
// bursts a link produces. An encoding failure (ErrEncode) returns the
// index of the offending value; frames before it may or may not have been
// sent, and the caller must recycle the connection either way (the gob
// stream is desynced), so a link replays them from its unacknowledged
// buffer. Any other error is the connection's.
//
//skueue:blocking -- synchronous network write; links call it from their writer goroutine, never the runner
func (w *Conn) WriteBatch(vs []any) (int, error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.wbuf.Reset()
	for i, v := range vs {
		if err := w.appendFrameLocked(v); err != nil {
			return i, err
		}
		if w.wbuf.Len() >= flushAt || i == len(vs)-1 {
			if _, err := w.c.Write(w.wbuf.Bytes()); err != nil {
				return i, err
			}
			w.wbuf.Reset()
		}
	}
	return len(vs), nil
}

// appendFrameLocked appends [length][gob body] for v to the write buffer:
// the four length bytes are reserved ahead of the body and patched once
// its size is known, so header and body leave in the same write (and the
// same TCP segment — Go sets TCP_NODELAY).
//
//skueue:locked wmu
func (w *Conn) appendFrameLocked(v any) error {
	start := w.wbuf.Len()
	var hdr [4]byte
	w.wbuf.Write(hdr[:])
	if err := w.enc.Encode(&v); err != nil {
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	n := w.wbuf.Len() - start - 4
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrEncode, n)
	}
	binary.BigEndian.PutUint32(w.wbuf.Bytes()[start:], uint32(n))
	return nil
}

// Read decodes the next frame. It blocks until a frame arrives, the
// connection closes (io.EOF), or fails.
func (w *Conn) Read() (any, error) {
	w.rmu.Lock()
	defer w.rmu.Unlock()
	// Every Write produces one frame per message and caps it at MaxFrame,
	// so one Decode may consume at most MaxFrame bytes; the budget stops a
	// hostile peer from smuggling an oversized message as many compliant
	// frames.
	w.fr.budget = MaxFrame
	var v any
	if err := w.dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// Close closes the underlying connection; blocked Reads return.
func (w *Conn) Close() error { return w.c.Close() }

// frameReader feeds the gob decoder the concatenated frame bodies,
// enforcing the length prefix, MaxFrame per frame, and the per-message
// budget set by Conn.Read.
type frameReader struct {
	r      io.Reader
	left   int
	budget int
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("wire: message exceeds MaxFrame (split across frames)")
	}
	for f.left == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
			return 0, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > MaxFrame {
			return 0, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame", n)
		}
		f.left = int(n)
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	if len(p) > f.budget {
		p = p[:f.budget]
	}
	n, err := f.r.Read(p)
	f.left -= n
	f.budget -= n
	return n, err
}

// ---- Value codec ----

// RegisterValue registers a concrete user value type for transmission by
// remote clients; see EncodeValue.
func RegisterValue(v any) { gob.Register(v) }

// EncodeValue serializes a user value for transport. Each value is a
// self-contained gob stream, so blobs can be stored, forwarded and decoded
// independently of any connection.
func EncodeValue(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("wire: value %T is not transportable: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeValue reverses EncodeValue. A nil blob decodes to nil.
func DecodeValue(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("wire: decode value: %w", err)
	}
	return v, nil
}

func init() {
	// Handshake and protocol frames themselves travel as `any` frames.
	Register(Hello{})
	Register(HelloAck{})
	Register(Envelope{})
	Register(BookUpdate{})
	Register(Ack{})
	Register(ReplayFence{})
	Register(CliEnqueue{})
	Register(CliDequeue{})
	Register(CliSessionAck{})
	Register(CliDone{})
	Register(CliHistory{})
	Register(CliHistoryResp{})
	Register(CliJoin{})
	Register(CliJoinResp{})
}
