// Package dht implements the storage component a virtual node contributes
// to the distributed hash table (paper §II-B, §III-F): the elements whose
// hashed position keys fall into the node's responsibility interval, plus
// the GET requests that arrived before their matching PUT and are parked
// until it shows up (the asynchronous model allows a GET to outrun the
// corresponding PUT).
//
// Entries are identified by their queue position; for the stack variant a
// position can hold several live entries distinguished by ticket (§VI),
// and a pop removes the newest entry whose ticket does not exceed the
// pop's bound. Queue entries simply use ticket 0 with bound 0.
//
// Routing, responsibility and handover policy belong to the protocol
// layer; this package only stores, matches and releases.
package dht

import (
	"fmt"
	"sort"

	"skueue/internal/transport"
)

// Element is a value stored in the distributed queue or stack. The paper
// assumes every element is enqueued at most once; uniqueness comes from
// the (origin process, per-origin sequence) pair.
type Element struct {
	Origin int32
	Seq    int64
}

func (e Element) String() string { return fmt.Sprintf("e%d.%d", e.Origin, e.Seq) }

// Entry is one stored element with its DHT identity. Blob is an opaque
// application payload riding with the element: the networked client layer
// stores the user's encoded value here so that a dequeue issued at a
// different cluster member than the enqueue can still return it. The
// simulated client layer keeps values outside the DHT and leaves Blob nil.
type Entry struct {
	Pos    int64
	Ticket int64
	Elem   Element
	Blob   []byte
}

// Waiter is a parked GET: who asked, which request of theirs this is, and
// the newest ticket they may take.
type Waiter struct {
	Requester transport.NodeID
	ReqID     uint64
	Bound     int64
}

// ParkedEntry pairs a waiter with the position it waits on, for handover.
type ParkedEntry struct {
	Pos    int64
	Waiter Waiter
}

// Released is a parked GET that a later PUT satisfied.
type Released struct {
	Waiter Waiter
	Entry  Entry
}

// Store is the per-node DHT fragment.
type Store struct {
	items  map[int64][]Entry // per position, ascending by ticket
	parked map[int64][]Waiter
	nItems int
	nPark  int
}

// NewStore returns an empty fragment.
func NewStore() *Store {
	return &Store{items: make(map[int64][]Entry), parked: make(map[int64][]Waiter)}
}

// Len returns the number of stored elements.
func (s *Store) Len() int { return s.nItems }

// Parked returns the number of parked GETs.
func (s *Store) Parked() int { return s.nPark }

// Put inserts an entry and returns any parked GETs it satisfies (at most
// one per Put in practice, but the slice keeps the API shape uniform).
// Inserting a duplicate (position, ticket) violates the protocol's unique
// position assignment and panics.
func (s *Store) Put(pos, ticket int64, e Element) []Released {
	return s.PutBlob(pos, ticket, e, nil)
}

// PutBlob is Put with an opaque application payload attached to the entry.
func (s *Store) PutBlob(pos, ticket int64, e Element, blob []byte) []Released {
	list := s.items[pos]
	i := sort.Search(len(list), func(i int) bool { return list[i].Ticket >= ticket })
	if i < len(list) && list[i].Ticket == ticket {
		panic(fmt.Sprintf("dht: duplicate put at pos=%d ticket=%d (have %v, new %v)", pos, ticket, list[i].Elem, e))
	}
	list = append(list, Entry{})
	copy(list[i+1:], list[i:])
	list[i] = Entry{Pos: pos, Ticket: ticket, Elem: e, Blob: blob}
	s.items[pos] = list
	s.nItems++

	var out []Released
	ws := s.parked[pos]
	for wi, w := range ws {
		if ent, ok := s.take(pos, w.Bound); ok {
			out = append(out, Released{Waiter: w, Entry: ent})
			ws = append(ws[:wi], ws[wi+1:]...)
			s.nPark--
			break
		}
	}
	if len(ws) == 0 {
		delete(s.parked, pos)
	} else {
		s.parked[pos] = ws
	}
	return out
}

// take removes and returns the newest entry at pos with ticket <= bound.
func (s *Store) take(pos, bound int64) (Entry, bool) {
	list := s.items[pos]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Ticket <= bound {
			ent := list[i]
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(s.items, pos)
			} else {
				s.items[pos] = list
			}
			s.nItems--
			return ent, true
		}
	}
	return Entry{}, false
}

// Get removes and returns the matching entry for a GET(pos) with the given
// ticket bound. ok is false when no eligible entry is present; the caller
// then parks the request with Park.
func (s *Store) Get(pos, bound int64) (Entry, bool) {
	return s.take(pos, bound)
}

// Has reports whether an entry with exactly (pos, ticket) is stored. The
// networked protocol uses it to recognize a replayed duplicate PUT after
// a fail-stop restart, where Put's duplicate panic would be wrong.
func (s *Store) Has(pos, ticket int64) bool {
	for _, e := range s.items[pos] {
		if e.Ticket == ticket {
			return true
		}
	}
	return false
}

// Park records a GET whose PUT has not arrived yet. A waiter with the
// same request ID already parked at the position is not parked twice: a
// fail-stop restart can replay a GET while its original is still
// waiting, and a duplicate waiter would swallow a second element once
// positions are reused (stack mode). Under exactly-once delivery
// (simulator) duplicates cannot occur, so this changes nothing there.
func (s *Store) Park(pos int64, w Waiter) {
	for _, have := range s.parked[pos] {
		if have.ReqID == w.ReqID {
			return
		}
	}
	s.parked[pos] = append(s.parked[pos], w)
	s.nPark++
}

// Extract removes and returns every entry and parked GET whose position
// satisfies keep. It implements the data handover of JOIN and LEAVE
// (§IV): the predicate is "hashes into the receiver's interval".
func (s *Store) Extract(keep func(pos int64) bool) ([]Entry, []ParkedEntry) {
	var ents []Entry
	for pos, list := range s.items {
		if keep(pos) {
			ents = append(ents, list...)
			s.nItems -= len(list)
			delete(s.items, pos)
		}
	}
	var parked []ParkedEntry
	for pos, ws := range s.parked {
		if keep(pos) {
			for _, w := range ws {
				parked = append(parked, ParkedEntry{Pos: pos, Waiter: w})
			}
			s.nPark -= len(ws)
			delete(s.parked, pos)
		}
	}
	// Deterministic order for the simulation.
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].Pos != ents[j].Pos {
			return ents[i].Pos < ents[j].Pos
		}
		return ents[i].Ticket < ents[j].Ticket
	})
	sortParked(parked)
	return ents, parked
}

// sortParked orders parked GETs by position. The sort is stable: one
// position's waiters stay in the order they parked, which is the order
// PutBlob releases them in, so a receiver that parks the list again
// serves them as the sender would have.
func sortParked(parked []ParkedEntry) {
	sort.SliceStable(parked, func(i, j int) bool { return parked[i].Pos < parked[j].Pos })
}

// ExtractAll removes and returns everything (full handover on LEAVE).
func (s *Store) ExtractAll() ([]Entry, []ParkedEntry) {
	return s.Extract(func(int64) bool { return true })
}

// Insert adds a handed-over entry, satisfying parked GETs like Put does.
func (s *Store) Insert(ent Entry) []Released {
	return s.PutBlob(ent.Pos, ent.Ticket, ent.Elem, ent.Blob)
}

// ParkedEntries returns the parked GETs sorted by position, each
// position's waiters in the order they parked, without removing them.
func (s *Store) ParkedEntries() []ParkedEntry {
	var out []ParkedEntry
	for pos, ws := range s.parked {
		for _, w := range ws {
			out = append(out, ParkedEntry{Pos: pos, Waiter: w})
		}
	}
	sortParked(out)
	return out
}

// Entries returns a sorted snapshot of all stored entries (tests, stats).
func (s *Store) Entries() []Entry {
	var out []Entry
	for _, list := range s.items {
		out = append(out, list...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Ticket < out[j].Ticket
	})
	return out
}
