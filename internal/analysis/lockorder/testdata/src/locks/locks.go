// Package locks exercises the lockorder analyzer: the rank hierarchy,
// equal-rank mutual exclusion, I/O and channel ops under ranked locks,
// the io escape flag, and suppressions.
package locks

import (
	"os"
	"sync"
)

type J struct {
	//skueue:lock 40 io
	wmu sync.Mutex
	//skueue:lock 44
	mu sync.Mutex
	f  *os.File
	ch chan int
}

type P struct {
	//skueue:lock 60
	mu sync.Mutex
}

type L struct {
	//skueue:lock 60
	bmu sync.Mutex
}

type R struct {
	//skueue:lock 10
	rw sync.RWMutex
}

// plain is not part of the hierarchy: never reported.
type plain struct {
	mu sync.Mutex
}

func ok(j *J) {
	j.wmu.Lock()
	j.mu.Lock() // ok: 44 > 40
	j.mu.Unlock()
	j.f.Sync() // ok: wmu is an io lock
	j.wmu.Unlock()
}

func badOrder(j *J) {
	j.mu.Lock()
	j.wmu.Lock() // want `lock order violation: acquiring j\.wmu \(rank 40\) while holding j\.mu \(rank 44\)`
	j.wmu.Unlock()
	j.mu.Unlock()
}

func equalRank(p *P, l *L) {
	p.mu.Lock()
	l.bmu.Lock() // want `acquiring l\.bmu \(rank 60\) while holding p\.mu \(rank 60\)`
	l.bmu.Unlock()
	p.mu.Unlock()
}

func doubleLock(j *J) {
	j.mu.Lock()
	j.mu.Lock() // want `j\.mu acquired while already held`
	j.mu.Unlock()
	j.mu.Unlock()
}

func heldAcrossSend(j *J) {
	j.mu.Lock()
	j.ch <- 1 // want `channel send while holding j\.mu \(rank 44\)`
	j.mu.Unlock()
}

func heldAcrossRecv(j *J) {
	j.mu.Lock()
	<-j.ch // want `channel receive while holding j\.mu`
	j.mu.Unlock()
}

func heldAcrossIO(j *J) {
	j.mu.Lock()
	j.f.Sync() // want `fsync while holding j\.mu`
	j.mu.Unlock()
}

func ioLockOK(j *J) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	j.f.Sync() // ok: the io flag permits blocking I/O under wmu
}

func rlockOrder(r *R, j *J) {
	r.rw.RLock()
	j.wmu.Lock() // ok: 40 > 10
	j.wmu.Unlock()
	r.rw.RUnlock()
}

func branchRelease(j *J) {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	j.wmu.Lock() // ok: mu was released on every live path
	j.wmu.Unlock()
}

func selectNoDefault(j *J) {
	j.mu.Lock()
	select { // want `select without default while holding j\.mu`
	case v := <-j.ch:
		_ = v
	}
	j.mu.Unlock()
}

func selectWithDefault(j *J) {
	j.mu.Lock()
	select {
	case j.ch <- 1: // ok: non-blocking attempt
	default:
	}
	j.mu.Unlock()
}

func unranked(p *plain, j *J) {
	p.mu.Lock()
	j.ch <- 1 // ok: plain.mu is not in the hierarchy
	p.mu.Unlock()
}

func goroutineResets(j *J) {
	j.mu.Lock()
	go func() {
		j.wmu.Lock() // ok: fresh goroutine holds nothing
		j.wmu.Unlock()
	}()
	j.mu.Unlock()
}
