// Package guarded exercises the guardedby analyzer: the sibling and
// cross-struct guard forms, the owned-by and locked escape hatches,
// branch-aware lock tracking, goroutine boundaries and suppression.
package guarded

import "sync"

// box is the sibling form: count and names may only be touched while
// the same instance's mu is held.
type box struct {
	mu sync.Mutex
	//skueue:guarded-by mu
	count int
	//skueue:guarded-by mu
	names map[string]int
}

// registry/session is the cross-struct form: any holder of a
// registry's mu may touch a session's cursor.
type registry struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

type session struct {
	id string
	//skueue:guarded-by registry.mu
	cursor int
}

func (b *box) inc() {
	b.mu.Lock()
	b.count++
	b.mu.Unlock()
}

func (b *box) deferred() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

func (b *box) bare() int {
	return b.count // want `\[guardedby\] box\.count accessed without holding its guard mu`
}

func (b *box) afterUnlock() {
	b.mu.Lock()
	b.count = 1
	b.mu.Unlock()
	b.count = 2 // want `box\.count accessed without holding its guard mu`
}

// steal holds a's mutex but touches b's field: the sibling form matches
// the access path, so another instance's lock does not qualify.
func steal(a, b *box) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.count++ // want `box\.count accessed without holding its guard mu`
}

// branch exercises the terminating-branch threading: the early-return
// path releases, the fall-through path still holds.
func (b *box) branch(ok bool) {
	b.mu.Lock()
	if !ok {
		b.mu.Unlock()
		return
	}
	b.count++
	b.mu.Unlock()
}

// read holds the guard as a reader; RLock qualifies, and the
// cross-struct form accepts it for the session's field.
func (r *registry) read(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sessions[id].cursor
}

func wander(s *session) {
	s.cursor++ // want `session\.cursor accessed without holding its guard registry\.mu`
}

// iterate ranges over a guarded map without the lock (the range operand
// is an access too).
func (b *box) iterate() {
	for k := range b.names { // want `box\.names accessed without holding its guard mu`
		_ = k
	}
}

// spawn leaks the access onto a new goroutine: the literal body starts
// with nothing held even though the spawner holds mu.
func (b *box) spawn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.count++ // want `box\.count accessed without holding its guard mu`
	}()
}

// newBox is single-owner until it returns: exempt wholesale.
//
//skueue:owned-by constructor -- fixture: no other goroutine can see b yet
func newBox() *box {
	b := &box{names: make(map[string]int)}
	b.count = 1
	return b
}

// fresh writes through a keyed composite literal: a fresh value under
// construction, exempt by design.
func fresh() box {
	return box{count: 3}
}

// bumpLocked is the *Locked helper idiom: the body assumes mu held, and
// call sites are checked instead.
//
//skueue:locked mu
func (b *box) bumpLocked() {
	b.count++
}

func (b *box) viaHelper() {
	b.mu.Lock()
	b.bumpLocked()
	b.mu.Unlock()
}

func (b *box) helperUnlocked() {
	b.bumpLocked() // want `call to \(\*guarded\.box\)\.bumpLocked requires mu held at the call site`
}

// ownerless is malformed: owned-by needs an owner and a reason.
//
//skueue:owned-by constructor
func ownerless(b *box) { // want `malformed //skueue:owned-by on ownerless`
	b.count = 0
}

// wrongLocked names a mutex the receiver does not have.
//
//skueue:locked nosuch
func (b *box) wrongLocked() { // want `//skueue:locked on wrongLocked names "nosuch", which is not a sync mutex field`
}

// broken declares guards that do not resolve.
type broken struct {
	mu   sync.Mutex
	flag bool
	//skueue:guarded-by nosuchmu
	x int // want `names "nosuchmu", which does not resolve to a field in this package`
	//skueue:guarded-by flag
	y int // want `names "flag", which is not a sync\.Mutex or sync\.RWMutex field`
}
