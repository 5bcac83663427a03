// Package runner exercises the runnerblock analyzer: blocking calls on
// the annotated hot path, transitive reachability, interface dispatch,
// escape hatches and suppressions.
package runner

import (
	"net"
	"os"
	"time"
)

type peer struct {
	f  *os.File
	ch chan int
}

//skueue:runner
func (p *peer) run() {
	p.step()
	p.f.Sync()              // want `\[runnerblock\] fsync via \(\*os\.File\)\.Sync on runner hot path`
	time.Sleep(time.Second) // want `sleep via time\.Sleep on runner hot path`
	net.Dial("tcp", "addr") // want `network dial via net\.Dial on runner hot path`
	p.ch <- 1               // want `channel send outside a select with default on runner hot path`
	select {
	case p.ch <- 1: // ok: non-blocking attempt
	default:
	}
	blocked()        // want `call to runner\.blocked, which blocks by design \(waits for the operation to finish\)`
	trusted()        // ok: nonblocking prunes the walk
	go p.offRunner() // ok: a spawned goroutine is not the runner
	func() {
		p.f.Sync() // want `fsync via \(\*os\.File\)\.Sync on runner hot path: \(\*runner\.peer\)\.run -> func literal`
	}()
}

// step is reachable from run; the finding inside deep must carry the
// full path.
func (p *peer) step() { p.deep() }

func (p *peer) deep() {
	p.f.Sync() // want `on runner hot path: \(\*runner\.peer\)\.run -> \(\*runner\.peer\)\.step -> \(\*runner\.peer\)\.deep`
}

func (p *peer) offRunner() {
	p.f.Sync() // ok: only ever started with go
}

//skueue:blocking -- waits for the operation to finish
func blocked() { time.Sleep(time.Millisecond) }

// trusted sleeps, but the annotation vouches for it; the analyzer must
// not walk into it.
//
//skueue:nonblocking -- fixture: pretend this is lock-free bookkeeping
func trusted() { time.Sleep(time.Millisecond) }
