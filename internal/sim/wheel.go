// The hierarchical timer queue behind Engine: a near wheel of fixed-grain
// slots covering the next ~2 ms of virtual time, plus an overflow min-heap
// for everything beyond the wheel horizon. Arm and cancel are O(1) for the
// near window — the hot path, since the kernel's kicks, slice timers, and
// segment completions all land within a couple of milliseconds of now — and
// far-future events (long sleeps, drain timers) pay one heap push plus one
// batch promotion when the window advances over them.
//
// Ordering is identical to the old global binary heap: events fire in
// (time, sequence) order, ties in insertion order. The wheel stores value
// entries {at, seq, ev}; an Event can be re-armed while queued by pushing a
// fresh entry and letting the stale one (seq mismatch) be skipped on pop,
// which is what keeps arm/cancel O(1) without index maintenance. Stale and
// tombstoned entries are dropped lazily on pop and in bulk by maybeCompact.
//
// Slot storage comes from one slab per wheel, carved on the wheel's first
// near-window push: each slot starts with a slabShare-entry share of it, so
// the common slot — one or two entries per pass of the window — never
// allocates. A slot that outgrows its share moves to its own array by plain
// append and keeps it (the slab share is capacity-limited, so the append
// can never spill into a neighbour's share).
package sim

import "enoki/internal/ktime"

const (
	// slotShift/slotGrain: each near-wheel slot covers 2^11 ns ≈ 2 µs.
	slotShift = 11
	slotGrain = 1 << slotShift
	// numSlots slots give the near wheel a ~2.1 ms horizon — wide enough
	// that tick timers (1 ms) and typical sleeps stay out of the overflow
	// heap.
	numSlots = 1024
	// slabShare is each slot's initial capacity, carved from the wheel's
	// slab. Measured final slot capacities on a 200-machine fleet drive
	// put nearly 90% of slots at one or two entries, and two entries
	// cost about what those slots' own growth used to.
	slabShare = 2
)

// entry is one queued occurrence of an event. The (at, seq) pair is the
// global firing order and doubles as the staleness check: if it no longer
// matches the event's current arming, the entry is dead.
type entry struct {
	at  ktime.Time
	seq uint64
	ev  *Event
}

// less orders entries by (time, sequence).
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is one near-wheel bucket. Entries [idx:sorted) are in firing order;
// [sorted:] is the unsorted tail appended since the last sort (same-slot
// pushes while the slot is draining — zero-delay kicks). The tail is folded
// in lazily by slotMin/slotPop.
type slot struct {
	ents   []entry
	idx    int
	sorted int
}

func (s *slot) reset() {
	s.ents = s.ents[:0]
	s.idx, s.sorted = 0, 0
}

func (s *slot) empty() bool { return s.idx >= len(s.ents) }

// normalize folds the unsorted tail into the sorted region. Ticks and wake
// bursts push same-time entries in seq order, so the tail is usually already
// sorted and the insertion pass is near-linear; a large disordered tail
// falls back to heapsort.
func (s *slot) normalize() {
	if s.sorted >= len(s.ents) {
		return
	}
	// Drop the consumed prefix so the sort works on live entries only.
	if s.idx > 0 {
		n := copy(s.ents, s.ents[s.idx:])
		s.ents = s.ents[:n]
		s.sorted -= s.idx
		s.idx = 0
	}
	if tail := len(s.ents) - s.sorted; tail > 48 {
		heapsortEntries(s.ents[s.sorted:])
	} else {
		insertionSortEntries(s.ents[s.sorted:])
	}
	// Merge the (now sorted) tail with the sorted head in place: standard
	// binary-insertion of the tail block, cheap because the tail is short
	// or the head is exhausted.
	mergeSortedEntries(s.ents, s.sorted)
	s.sorted = len(s.ents)
}

// peek returns the slot's earliest live-ordered entry without consuming it.
func (s *slot) peek() entry {
	s.normalize()
	return s.ents[s.idx]
}

// pop consumes and returns the slot's earliest entry.
func (s *slot) pop() entry {
	s.normalize()
	e := s.ents[s.idx]
	s.ents[s.idx] = entry{}
	s.idx++
	if s.idx >= len(s.ents) {
		s.reset()
	}
	return e
}

// insertionSortEntries sorts a short or nearly sorted run in place.
func insertionSortEntries(e []entry) {
	for i := 1; i < len(e); i++ {
		v := e[i]
		j := i - 1
		for j >= 0 && v.less(e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = v
	}
}

// heapsortEntries is the allocation-free O(n log n) fallback for large
// disordered tails (sort.Slice would allocate its closure on the hot path).
func heapsortEntries(e []entry) {
	n := len(e)
	for i := n/2 - 1; i >= 0; i-- {
		siftEntries(e, i, n)
	}
	for i := n - 1; i > 0; i-- {
		e[0], e[i] = e[i], e[0]
		siftEntries(e, 0, i)
	}
}

func siftEntries(e []entry, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && e[c].less(e[c+1]) {
			c++
		}
		if !e[root].less(e[c]) {
			return
		}
		e[root], e[c] = e[c], e[root]
		root = c
	}
}

// mergeSortedEntries merges e[:mid] and e[mid:], both sorted, into one
// sorted slice in place by repeated insertion of tail elements. The tail is
// short in steady state, so this beats an allocating merge buffer.
func mergeSortedEntries(e []entry, mid int) {
	for i := mid; i < len(e); i++ {
		v := e[i]
		j := i - 1
		for j >= 0 && v.less(e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = v
	}
}

// overflow is a manual min-heap of entries (container/heap would box every
// entry through interface{} and allocate on each push).
type overflow struct {
	ents []entry
}

func (o *overflow) empty() bool { return len(o.ents) == 0 }

func (o *overflow) push(e entry) {
	o.ents = append(o.ents, e)
	i := len(o.ents) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.ents[i].less(o.ents[p]) {
			break
		}
		o.ents[i], o.ents[p] = o.ents[p], o.ents[i]
		i = p
	}
}

func (o *overflow) pop() entry {
	e := o.ents[0]
	n := len(o.ents) - 1
	o.ents[0] = o.ents[n]
	o.ents[n] = entry{}
	o.ents = o.ents[:n]
	if n > 0 {
		o.siftDown(0)
	}
	return e
}

func (o *overflow) siftDown(i int) {
	n := len(o.ents)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && o.ents[c+1].less(o.ents[c]) {
			c++
		}
		if !o.ents[c].less(o.ents[i]) {
			return
		}
		o.ents[i], o.ents[c] = o.ents[c], o.ents[i]
		i = c
	}
}

// wheelQueue is the full hierarchical structure: near wheel + overflow
// level. base is the absolute slot number (at >> slotShift) of the window
// start; the window covers slot numbers [base, base+numSlots).
type wheelQueue struct {
	slots    [numSlots]slot
	base     int64 // absolute slot number of window start
	nearCnt  int   // entries in the near wheel
	over     overflow
	nentries int // total entries, live + stale + tombstoned
}

func slotOf(t ktime.Time) int64 { return int64(t) >> slotShift }

// windowEnd returns the first absolute time beyond the near window.
func (w *wheelQueue) windowEnd() ktime.Time {
	return ktime.Time((w.base + numSlots) << slotShift)
}

// push files an entry into the near wheel or the overflow level.
func (w *wheelQueue) push(e entry) {
	w.nentries++
	s := slotOf(e.at)
	if s < w.base {
		// Window already advanced past this time: only possible when the
		// clock sits mid-window (pushes are never in the past), so the
		// current base slot is the right home.
		s = w.base
	}
	if s < w.base+numSlots {
		sl := &w.slots[s%numSlots]
		if sl.ents == nil {
			w.carve()
		}
		sl.ents = append(sl.ents, e)
		w.nearCnt++
		return
	}
	w.over.push(e)
}

// carve allocates the wheel's slab and hands every slot its
// capacity-limited share. It runs at the first near-window push, when no
// slot has storage yet; slots never drop their backing array afterwards
// (reset and compact reslice to zero length), so it runs once per wheel.
func (w *wheelQueue) carve() {
	slab := make([]entry, numSlots*slabShare)
	for i := range w.slots {
		lo := i * slabShare
		w.slots[i].ents = slab[lo : lo : lo+slabShare]
	}
}

// advanceTo moves the window start forward to absolute slot s (never
// backward) and promotes overflow entries that now fall inside the window.
// Callers only invoke it when the slots being skipped are empty.
func (w *wheelQueue) advanceTo(s int64) {
	if s <= w.base {
		return
	}
	w.base = s
	end := w.windowEnd()
	for !w.over.empty() && w.over.ents[0].at < end {
		e := w.over.pop()
		w.nentries-- // push re-counts it
		w.push(e)
	}
}

// next locates the earliest entry. When extract is true the entry is
// consumed; otherwise it is left in place. The second result is false when
// the queue holds no entries at all.
func (w *wheelQueue) next(extract bool) (entry, bool) {
	if w.nentries == 0 {
		return entry{}, false
	}
	for {
		if w.nearCnt > 0 {
			// Scan forward from the window start to the first non-empty
			// slot. The scan is amortized: base only moves forward, and
			// each slot is visited once per window traversal.
			for i := int64(0); i < numSlots; i++ {
				sl := &w.slots[(w.base+i)%numSlots]
				if sl.empty() {
					continue
				}
				if i > 0 {
					w.advanceTo(w.base + i)
					// Promotion may have refilled earlier slots — the
					// promoted entries land at or after the new base, so
					// restart the scan from it.
					sl = &w.slots[w.base%numSlots]
					if sl.empty() {
						break // rescan from the top
					}
				}
				if extract {
					e := sl.pop()
					w.nearCnt--
					w.nentries--
					return e, true
				}
				return sl.peek(), true
			}
			continue
		}
		if w.over.empty() {
			return entry{}, false
		}
		// Near wheel empty: jump the window to the overflow root, which
		// promotes it (and any peers) into the wheel.
		w.advanceTo(slotOf(w.over.ents[0].at))
		if w.nearCnt == 0 {
			// Defensive: promotion must have moved the root in.
			panic("sim: overflow promotion moved no entries")
		}
	}
}

// compact rebuilds every slot and the overflow without stale or tombstoned
// entries. Consumed prefixes are dropped and slots are left unsorted (the
// next pop re-normalizes), which keeps the pass a single O(n) sweep.
// Tombstoned fire-and-forget events cannot exist (no handle, no Cancel), so
// dropped entries never need free-list release.
func (w *wheelQueue) compact(liveEntry func(entry) bool) {
	total := 0
	for i := range w.slots {
		sl := &w.slots[i]
		kept := sl.ents[:0]
		for _, e := range sl.ents[sl.idx:] {
			if liveEntry(e) {
				kept = append(kept, e)
			}
		}
		for j := len(kept); j < len(sl.ents); j++ {
			sl.ents[j] = entry{}
		}
		sl.ents = kept
		sl.idx, sl.sorted = 0, 0
		total += len(kept)
	}
	w.nearCnt = total
	keptOver := w.over.ents[:0]
	for _, e := range w.over.ents {
		if liveEntry(e) {
			keptOver = append(keptOver, e)
		}
	}
	for j := len(keptOver); j < len(w.over.ents); j++ {
		w.over.ents[j] = entry{}
	}
	w.over.ents = keptOver
	// Re-heapify: order within the kept slice was heap order, not sorted.
	for i := len(w.over.ents)/2 - 1; i >= 0; i-- {
		w.over.siftDown(i)
	}
	w.nentries = total + len(w.over.ents)
}
