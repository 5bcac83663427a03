package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
)

func TestValueCodec(t *testing.T) {
	for _, v := range []any{nil, "job-1", 42, int64(-7), 3.5, true, []byte{1, 2}, []any{"a", 1}, map[string]any{"k": "v"}} {
		b, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("EncodeValue(%v): %v", v, err)
		}
		got, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip changed %#v into %#v", v, got)
		}
	}
}

func TestConnFraming(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	msgs := []any{
		Hello{Kind: "peer", Me: MemberInfo{Index: 1, Addr: "x:1", Pids: []int32{1}}},
		HelloAck{Book: []MemberInfo{{Index: 0, Addr: "y:2", Pids: []int32{0}}}, Mode: "queue"},
		CliEnqueue{Seq: 9, Value: []byte("blob")},
		CliDone{Seq: 9, Bottom: true, Rounds: 17},
		BookUpdate{Book: []MemberInfo{{Index: 2, Addr: "z:3", Pids: []int32{5, 6}}}},
	}
	go func() {
		for _, m := range msgs {
			if err := ca.Write(m); err != nil {
				t.Errorf("write %T: %v", m, err)
				return
			}
		}
	}()
	for i, want := range msgs {
		got, err := cb.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d: got %+v want %+v", i, got, want)
		}
	}
}

// tapeConn is a net.Conn that records what is written to it, call by
// call, and replays a byte tape to its reader, counting the calls.
type tapeConn struct {
	net.Conn // nil: only Read, Write and Close are used
	writes   [][]byte
	tape     *bytes.Reader
	reads    int
}

func (c *tapeConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *tapeConn) Read(p []byte) (int, error) {
	c.reads++
	return c.tape.Read(p)
}

func (c *tapeConn) Close() error { return nil }

func testFrames(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = CliEnqueue{Seq: uint64(i + 1), Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	return out
}

// readBack replays everything written to w into a fresh Conn and checks
// it decodes to want, returning the number of socket reads it took.
func readBack(t *testing.T, w *tapeConn, want []any) int {
	t.Helper()
	r := &tapeConn{tape: bytes.NewReader(bytes.Join(w.writes, nil))}
	cr := NewConn(r)
	for i, m := range want {
		got, err := cr.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, m)
		}
	}
	if _, err := cr.Read(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	return r.reads
}

// TestWriteIsOneCallPerFrame: the length prefix leaves in the same write
// (under TCP_NODELAY: the same segment) as the body it announces, and the
// reader fetches many frames per socket read.
func TestWriteIsOneCallPerFrame(t *testing.T) {
	w := &tapeConn{}
	cw := NewConn(w)
	frames := testFrames(50)
	for _, m := range frames {
		if err := cw.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.writes) != len(frames) {
		t.Fatalf("%d frames took %d write calls, want one each", len(frames), len(w.writes))
	}
	for i, b := range w.writes {
		if n := binary.BigEndian.Uint32(b); int(n) != len(b)-4 {
			t.Fatalf("write %d: prefix announces %d body bytes, write carries %d", i, n, len(b)-4)
		}
	}
	if reads := readBack(t, w, frames); reads > len(frames)/4 {
		t.Fatalf("reading %d frames took %d socket reads; the reader is not buffering", len(frames), reads)
	}
}

// TestWriteBatch: a burst is one write, a backlog beyond flushAt goes out
// in flushAt-sized chunks, the stream is the one frame-by-frame Writes
// would have produced, and an unencodable value is reported by index.
func TestWriteBatch(t *testing.T) {
	w := &tapeConn{}
	cw := NewConn(w)
	burst := testFrames(40)
	if n, err := cw.WriteBatch(burst); err != nil || n != len(burst) {
		t.Fatalf("WriteBatch: %d, %v", n, err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("a %d-frame burst took %d write calls, want 1", len(burst), len(w.writes))
	}
	if n, err := cw.WriteBatch(nil); err != nil || n != 0 || len(w.writes) != 1 {
		t.Fatalf("empty batch: %d, %v, %d writes", n, err, len(w.writes))
	}
	backlog := testFrames(2000) // ~130 bytes a frame: about four chunks
	if _, err := cw.WriteBatch(backlog); err != nil {
		t.Fatal(err)
	}
	chunks := len(w.writes) - 1
	if chunks < 2 || chunks > 8 {
		t.Fatalf("a %d-frame backlog went out in %d writes, want a handful of %d-byte chunks", len(backlog), chunks, flushAt)
	}
	for i, b := range w.writes[1 : len(w.writes)-1] {
		if len(b) < flushAt || len(b) > flushAt+1024 {
			t.Fatalf("chunk %d is %d bytes, want just over %d", i, len(b), flushAt)
		}
	}
	readBack(t, w, append(append([]any{}, burst...), backlog...))

	type unregistered struct{ X int }
	bad := []any{Ack{Seq: 1}, Ack{Seq: 2}, Envelope{Payload: unregistered{1}}, Ack{Seq: 3}}
	n, err := NewConn(&tapeConn{}).WriteBatch(bad)
	if !errors.Is(err, ErrEncode) || n != 2 {
		t.Fatalf("unencodable value at index 2: got index %d, err %v", n, err)
	}
}
