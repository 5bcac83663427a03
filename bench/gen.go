package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"skueue"
)

// valueSize is the size of the job descriptors the networked workloads
// enqueue: large enough that codec and journal bytes are visible.
const valueSize = 128

// pipeDepth is how many futures a closed-loop connection keeps in flight.
const pipeDepth = 64

// opTimeout bounds how long the generator waits for one future before it
// counts the operation as failed, so a wedged cluster ends the run.
const opTimeout = 60 * time.Second

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jobValue is the seeded descriptor of enqueue id: the id, then bytes
// drawn from the seed and the id. The checker regenerates it from the id
// a dequeue returned, so the generator keeps no copy of its values.
func jobValue(seed, id uint64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v, id)
	state := seed ^ id*0x9e3779b97f4a7c15
	for off := 8; off < valueSize; off += 8 {
		binary.BigEndian.PutUint64(v[off:], splitmix64(&state))
	}
	return v
}

// opRec is the generator's own record of one operation. Times are
// nanoseconds since the environment's epoch.
type opRec struct {
	id     uint64 // enqueue: the value's id
	enq    bool
	due    int64 // when the schedule wanted it sent (closed loop: sub0)
	sub0   int64 // submit call entered
	sub1   int64 // submit call returned
	done   int64 // future resolved
	ticks  int64 // Future.Rounds: latency in the member's ticks
	bottom bool
	valID  uint64 // dequeue: id carried by the returned value
	fail   string // non-empty: error, indeterminate, refused or corrupt value
}

// opLog stores records in chunks so that a pointer handed to a waiter
// goroutine stays valid while the submitter keeps appending.
type opLog struct {
	chunks [][]opRec
	n      int
}

const logChunk = 4096

func (l *opLog) next() *opRec {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == logChunk {
		l.chunks = append(l.chunks, make([]opRec, 0, logChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, opRec{})
	l.n++
	return &(*c)[len(*c)-1]
}

func (l *opLog) at(i int) *opRec { return &l.chunks[i/logChunk][i%logChunk] }

func (l *opLog) each(fn func(*opRec)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// conn is one client connection with its submitting goroutine's state.
// A single goroutine submits on it; waiter goroutines only fill in the
// completion fields of the record they were handed.
type conn struct {
	env    *netEnv
	idx    int
	c      *skueue.Client
	rng    uint64
	log    *opLog
	wg     sync.WaitGroup
	nextID uint64
}

// submit issues one operation and hands its future to a waiter. due is
// the scheduled send time (0: now). slot, when non-nil, is released as
// the operation completes.
func (cn *conn) submit(enq bool, due int64, slot chan struct{}) {
	env := cn.env
	rec := cn.log.next()
	rec.enq = enq
	var value []byte
	if enq {
		rec.id = cn.nextID*uint64(len(env.conns)) + uint64(cn.idx)
		cn.nextID++
		value = jobValue(env.seed, rec.id)
	}
	rec.sub0 = env.since()
	if due == 0 {
		due = rec.sub0
	}
	rec.due = due
	var f *skueue.Future
	var err error
	if enq {
		f, err = cn.c.EnqueueAsync(skueue.AnyProcess, value)
	} else {
		f, err = cn.c.DequeueAsync(skueue.AnyProcess)
	}
	rec.sub1 = env.since()
	if err != nil {
		rec.fail = "refused: " + err.Error()
		rec.done = rec.sub1
		if slot != nil {
			<-slot
		}
		return
	}
	env.noteInflight(1)
	cn.wg.Add(1)
	go func() {
		defer cn.wg.Done()
		timer := time.NewTimer(opTimeout)
		defer timer.Stop()
		select {
		case <-f.Done():
			rec.done = env.since()
			rec.settle(env.seed, f)
		case <-timer.C:
			rec.done = env.since()
			rec.fail = "no completion within " + opTimeout.String()
		}
		env.noteInflight(-1)
		if slot != nil {
			<-slot
		}
	}()
}

// settle copies a completed future's outcome into the record.
func (rec *opRec) settle(seed uint64, f *skueue.Future) {
	if err := f.Err(); err != nil {
		rec.fail = err.Error()
		if f.Indeterminate() {
			rec.fail = "indeterminate: " + rec.fail
		}
		return
	}
	rec.ticks = f.Rounds()
	if rec.enq {
		return
	}
	if f.Empty() {
		rec.bottom = true
		return
	}
	v, ok := f.Value().([]byte)
	if !ok || len(v) != valueSize {
		rec.fail = fmt.Sprintf("dequeued %T of %d bytes, want a %d-byte descriptor", f.Value(), len(v), valueSize)
		return
	}
	rec.valID = binary.BigEndian.Uint64(v)
	if !bytes.Equal(v, jobValue(seed, rec.valID)) {
		rec.fail = fmt.Sprintf("dequeued descriptor %d does not match what was enqueued", rec.valID)
	}
}

// coin draws the next seeded enqueue-or-dequeue choice of the connection.
func (cn *conn) coin() bool { return splitmix64(&cn.rng)&1 == 0 }

// closedLoop keeps up to pipeDepth operations in flight on the
// connection until more returns false, then waits for all of them.
// kind picks each operation's type.
func (cn *conn) closedLoop(more func() bool, kind func() bool) {
	slots := make(chan struct{}, pipeDepth)
	for more() {
		slots <- struct{}{}
		cn.submit(kind(), 0, slots)
	}
	cn.wg.Wait()
}

// openLoop calls send(i, due) for i = first, first+stride, ... at
// due = i*interval after start, for every due time before length has
// passed, never waiting for earlier operations. When the caller is late
// it sends at once and keeps the original due time, so a stall shows up
// as lateness and in the latencies of the operations it delayed rather
// than shifting the schedule.
func openLoop(start time.Time, interval, length time.Duration, first, stride int, send func(i int, due time.Duration)) {
	for i := first; ; i += stride {
		due := time.Duration(i) * interval
		if due >= length {
			return
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		send(i, due)
	}
}

// dequeueUntilEmpty dequeues on the connection, a few at a time, until a
// dequeue answers ⊥ (or fails): with nothing else in flight the queue is
// then empty.
func (cn *conn) dequeueUntilEmpty() {
	for {
		from := cn.log.n
		cn.closedLoop(func() bool { return cn.log.n < from+16 }, func() bool { return false })
		for i := from; i < cn.log.n; i++ {
			if r := cn.log.at(i); r.bottom || r.fail != "" {
				return
			}
		}
	}
}
