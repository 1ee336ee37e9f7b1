package sim

import (
	"sort"
	"testing"

	"enoki/internal/ktime"
)

// TestWheelSlabOneAllocation: on a fresh engine, one push into each of the
// 1,024 near slots costs at most one allocation — the slab every slot's
// first storage is carved from.
func TestWheelSlabOneAllocation(t *testing.T) {
	const runs = 4
	// AllocsPerRun calls the function once more as a warm-up; every call
	// gets its own fresh engine and pre-built events.
	engs := make([]*Engine, runs+1)
	evs := make([][]*Event, runs+1)
	for i := range engs {
		engs[i] = New()
		evs[i] = make([]*Event, numSlots)
		for s := range evs[i] {
			evs[i][s] = engs[i].NewEvent(func() {})
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e, ev := engs[n], evs[n]
		n++
		for s := numSlots - 1; s >= 0; s-- {
			e.Reschedule(ev[s], ktime.Time(s*slotGrain))
		}
	})
	if allocs > 1 {
		t.Fatalf("one push per near slot: %.0f allocations, want at most 1", allocs)
	}
	e := engs[0]
	for i := range e.wq.slots {
		if sl := &e.wq.slots[i]; len(sl.ents) != 1 || cap(sl.ents) != slabShare {
			t.Fatalf("slot %d: len %d cap %d, want 1 entry in a %d-entry share", i, len(sl.ents), cap(sl.ents), slabShare)
		}
	}
	if e.wq.nearCnt != numSlots || !e.wq.over.empty() {
		t.Fatalf("near %d entries, overflow empty %v", e.wq.nearCnt, e.wq.over.empty())
	}
}

// TestWheelSlotOutgrowsSlabShare fills a slot's neighbour to its slab
// share, then pushes far more entries into the slot than its share holds,
// and checks both drain in exact (time, seq) order against a sorted reference:
// the overgrown slot moves to its own array without spilling into the
// neighbour's share.
func TestWheelSlotOutgrowsSlabShare(t *testing.T) {
	e := New()
	r := ktime.NewRand(0x51ab)
	type ref struct {
		at  ktime.Time
		seq int
	}
	var want, got []ref
	const slot = 3
	for i := 0; i < 40; i++ {
		s := int64(slot)
		if i < slabShare {
			s++ // fill the neighbour's share first
		}
		// Few distinct offsets inside the slot, so times tie often.
		at := ktime.Time(s*slotGrain + int64(r.Intn(4))*300)
		i := i
		e.At(at, func() { got = append(got, ref{e.Now(), i}) })
		want = append(want, ref{at, i})
	}
	if c := cap(e.wq.slots[slot].ents); c <= slabShare {
		t.Fatalf("slot %d cap %d: never outgrew its %d-entry share", slot, c, slabShare)
	}
	if nb := e.wq.slots[slot+1].ents; len(nb) != slabShare || cap(nb) != slabShare {
		t.Fatalf("neighbour len %d cap %d, want its full %d-entry share", len(nb), cap(nb), slabShare)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d events", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: got (%v, #%d), want (%v, #%d)", i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}
