package dht

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	e := Element{Origin: 1, Seq: 7}
	if rel := s.Put(5, 0, e); len(rel) != 0 {
		t.Fatalf("unexpected releases: %v", rel)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	ent, ok := s.Get(5, 0)
	if !ok || ent.Elem != e {
		t.Fatalf("get failed: %v %v", ent, ok)
	}
	if s.Len() != 0 {
		t.Fatalf("len after get = %d", s.Len())
	}
	if _, ok := s.Get(5, 0); ok {
		t.Fatalf("second get should miss")
	}
}

func TestGetBeforePutParks(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(9, 0); ok {
		t.Fatalf("get on empty store should miss")
	}
	w := Waiter{Requester: 3, ReqID: 42}
	s.Park(9, w)
	if s.Parked() != 1 {
		t.Fatalf("parked = %d", s.Parked())
	}
	rel := s.Put(9, 0, Element{Origin: 2, Seq: 1})
	if len(rel) != 1 || rel[0].Waiter != w || rel[0].Entry.Elem != (Element{Origin: 2, Seq: 1}) {
		t.Fatalf("release wrong: %v", rel)
	}
	if s.Parked() != 0 || s.Len() != 0 {
		t.Fatalf("store not drained: %d items %d parked", s.Len(), s.Parked())
	}
}

func TestPutDifferentPositionDoesNotRelease(t *testing.T) {
	s := NewStore()
	s.Park(1, Waiter{Requester: 1})
	if rel := s.Put(2, 0, Element{}); len(rel) != 0 {
		t.Fatalf("put at other position released a waiter")
	}
	if s.Parked() != 1 || s.Len() != 1 {
		t.Fatalf("state wrong")
	}
}

func TestStackTicketSelection(t *testing.T) {
	s := NewStore()
	// Same position, three generations of pushes.
	s.Put(4, 10, Element{Seq: 10})
	s.Put(4, 20, Element{Seq: 20})
	s.Put(4, 30, Element{Seq: 30})
	// A pop with bound 25 must take ticket 20 (newest <= bound).
	ent, ok := s.Get(4, 25)
	if !ok || ent.Ticket != 20 {
		t.Fatalf("got %v, want ticket 20", ent)
	}
	// Bound 5: nothing eligible (only 10 and 30 remain; 10 <= 5 false).
	if _, ok := s.Get(4, 5); ok {
		t.Fatalf("bound 5 should match nothing")
	}
	// Bound 100 takes the newest remaining, 30.
	ent, _ = s.Get(4, 100)
	if ent.Ticket != 30 {
		t.Fatalf("got ticket %d, want 30", ent.Ticket)
	}
}

func TestParkedBoundRespectedOnPut(t *testing.T) {
	s := NewStore()
	// Waiter may only take tickets <= 7; a newer put must not release it.
	w := Waiter{Requester: 1, ReqID: 1, Bound: 7}
	s.Park(3, w)
	if rel := s.Put(3, 9, Element{Seq: 9}); len(rel) != 0 {
		t.Fatalf("put with newer ticket released bounded waiter")
	}
	rel := s.Put(3, 6, Element{Seq: 6})
	if len(rel) != 1 || rel[0].Entry.Ticket != 6 {
		t.Fatalf("eligible put did not release waiter: %v", rel)
	}
}

func TestParkDedupesByReqID(t *testing.T) {
	s := NewStore()
	// A replayed GET (fail-stop restart) must not park a second waiter:
	// once positions are reused, the stale duplicate would swallow a
	// later element.
	w := Waiter{Requester: 1, ReqID: 42}
	s.Park(3, w)
	s.Park(3, w)
	if s.Parked() != 1 {
		t.Fatalf("duplicate park counted: %d waiters", s.Parked())
	}
	if rel := s.Put(3, 0, Element{Seq: 1}); len(rel) != 1 {
		t.Fatalf("put released %d waiters, want 1", len(rel))
	}
	// The duplicate must be gone too: a second put at the position (after
	// the first was consumed) has nobody to release.
	if rel := s.PutBlob(3, 1, Element{Seq: 2}, nil); len(rel) != 0 {
		t.Fatalf("stale duplicate waiter stole a later element: %v", rel)
	}
	// A different request at the same position still parks normally.
	s.Park(3, Waiter{Requester: 1, ReqID: 43, Bound: 99})
	if s.Parked() != 1 {
		t.Fatalf("distinct waiter rejected: %d parked", s.Parked())
	}
}

func TestDuplicatePutPanics(t *testing.T) {
	s := NewStore()
	s.Put(1, 0, Element{})
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate put should panic")
		}
	}()
	s.Put(1, 0, Element{Seq: 1})
}

func TestExtractByPredicate(t *testing.T) {
	s := NewStore()
	for pos := int64(1); pos <= 10; pos++ {
		s.Put(pos, 0, Element{Seq: pos})
	}
	s.Park(3, Waiter{ReqID: 3})
	s.Park(8, Waiter{ReqID: 8})
	ents, parked := s.Extract(func(pos int64) bool { return pos%2 == 0 })
	if len(ents) != 5 {
		t.Fatalf("extracted %d entries, want 5", len(ents))
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Pos >= ents[i].Pos {
			t.Fatalf("extract not sorted: %v", ents)
		}
	}
	if len(parked) != 1 || parked[0].Pos != 8 {
		t.Fatalf("parked extraction wrong: %v", parked)
	}
	if s.Len() != 5 || s.Parked() != 1 {
		t.Fatalf("leftovers wrong: %d/%d", s.Len(), s.Parked())
	}
}

func TestExtractAllAndReinsert(t *testing.T) {
	a, b := NewStore(), NewStore()
	for pos := int64(1); pos <= 6; pos++ {
		a.Put(pos, pos, Element{Seq: pos})
	}
	ents, _ := a.ExtractAll()
	if a.Len() != 0 || len(ents) != 6 {
		t.Fatalf("extract all failed")
	}
	for _, ent := range ents {
		b.Insert(ent)
	}
	if b.Len() != 6 {
		t.Fatalf("reinsert failed")
	}
	ent, ok := b.Get(4, 99)
	if !ok || ent.Ticket != 4 {
		t.Fatalf("entry lost in handover: %v", ent)
	}
}

// TestExtractKeepsWaiterOrder: several GETs parked at one position (stack
// positions are reused) leave Extract and ParkedEntries in the order they
// parked, the order PutBlob releases them in. Past a dozen parked GETs an
// unstable sort reorders them, and a receiver re-parking the list would
// hand the next element to the wrong waiter.
func TestExtractKeepsWaiterOrder(t *testing.T) {
	const shared = 20
	want := []uint64{1001, 1002, 1003}
	fill := func() *Store {
		s := NewStore()
		for pos := int64(0); pos < 40; pos++ {
			s.Park(pos, Waiter{ReqID: uint64(pos + 1)})
		}
		for _, id := range want {
			s.Park(shared, Waiter{ReqID: id})
		}
		return s
	}
	check := func(how string, parked []ParkedEntry) {
		t.Helper()
		var got []uint64
		for i, pk := range parked {
			if i > 0 && parked[i-1].Pos > pk.Pos {
				t.Fatalf("%s: not sorted by position at %d: %v", how, i, parked)
			}
			if pk.Pos == shared && pk.Waiter.ReqID > 1000 {
				got = append(got, pk.Waiter.ReqID)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: waiters at position %d in order %v, parked as %v", how, shared, got, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		s := fill()
		check("ParkedEntries", s.ParkedEntries())
		if s.Parked() != 43 {
			t.Fatalf("ParkedEntries removed waiters: %d left, want 43", s.Parked())
		}
		_, parked := s.ExtractAll()
		check("ExtractAll", parked)
	}
}

func TestInsertSatisfiesParked(t *testing.T) {
	s := NewStore()
	s.Park(2, Waiter{ReqID: 9, Bound: 5})
	rel := s.Insert(Entry{Pos: 2, Ticket: 1, Elem: Element{Seq: 1}})
	if len(rel) != 1 || rel[0].Waiter.ReqID != 9 {
		t.Fatalf("insert did not satisfy parked waiter")
	}
}

func TestEntriesSnapshotSorted(t *testing.T) {
	s := NewStore()
	s.Put(3, 2, Element{})
	s.Put(1, 0, Element{})
	s.Put(3, 1, Element{})
	ents := s.Entries()
	if len(ents) != 3 || ents[0].Pos != 1 || ents[1].Ticket != 1 || ents[2].Ticket != 2 {
		t.Fatalf("snapshot wrong: %v", ents)
	}
	if s.Len() != 3 {
		t.Fatalf("snapshot must not consume entries")
	}
}

func TestConservationProperty(t *testing.T) {
	// Random interleavings of puts and matching gets conserve elements:
	// every put is either still stored or was returned by exactly one get.
	f := func(ops []uint8) bool {
		s := NewStore()
		nextPos := int64(1)
		live := map[int64]bool{}
		returned := map[int64]bool{}
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				s.Put(nextPos, 0, Element{Seq: nextPos})
				live[nextPos] = true
				nextPos++
			} else {
				// Get the smallest live position.
				var pos int64 = -1
				for p := range live {
					if pos == -1 || p < pos {
						pos = p
					}
				}
				ent, ok := s.Get(pos, 0)
				if !ok || ent.Elem.Seq != pos || returned[pos] {
					return false
				}
				returned[pos] = true
				delete(live, pos)
			}
		}
		return s.Len() == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultipleWaitersFIFO(t *testing.T) {
	s := NewStore()
	s.Park(1, Waiter{ReqID: 1, Bound: 100})
	s.Park(1, Waiter{ReqID: 2, Bound: 100})
	rel := s.Put(1, 1, Element{Seq: 1})
	if len(rel) != 1 || rel[0].Waiter.ReqID != 1 {
		t.Fatalf("first parked waiter should release first: %v", rel)
	}
	rel = s.Put(1, 2, Element{Seq: 2})
	if len(rel) != 1 || rel[0].Waiter.ReqID != 2 {
		t.Fatalf("second waiter should release next: %v", rel)
	}
}

func TestElementString(t *testing.T) {
	if (Element{Origin: 3, Seq: 9}).String() != "e3.9" {
		t.Errorf("element string wrong")
	}
}
