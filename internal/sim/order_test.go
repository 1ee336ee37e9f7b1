package sim

import (
	"fmt"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// TestSmsgOrderTotal is the ordering audit's property test: for random
// message populations (including heavy collisions on at/to/from), every
// shuffle must sort to the same sequence, and no two distinct messages may
// compare equal under the (at, to, from, seq) order — totality is what makes
// the serial and parallel drives byte-identical, and it holds only because
// per-source seq counters are unique for the executor's life.
func TestSmsgOrderTotal(t *testing.T) {
	rng := ktime.NewRand(0xf1ee7)
	for round := 0; round < 50; round++ {
		// Build a population the way executors do: per-source monotonic
		// sequences, clustered timestamps and destinations so ties on
		// (at, to) and (at, to, from) are common.
		nsrc := 2 + int(rng.Intn(5))
		seqs := make([]uint64, nsrc)
		n := 20 + int(rng.Intn(200))
		msgs := make([]smsg, 0, n)
		for i := 0; i < n; i++ {
			src := rng.Intn(nsrc)
			seqs[src]++
			msgs = append(msgs, smsg{
				at:   ktime.Time(rng.Intn(8)), // few instants → many ties
				to:   int32(rng.Intn(3)),
				from: int32(src),
				seq:  seqs[src],
			})
		}
		key := func(m smsg) string { return fmt.Sprintf("%d/%d/%d/%d", m.at, m.to, m.from, m.seq) }

		// Totality: distinct messages never compare equal both ways.
		for i := range msgs {
			for j := range msgs {
				if i != j && !msgs[i].less(msgs[j]) && !msgs[j].less(msgs[i]) {
					t.Fatalf("round %d: messages %s and %s are order-equal", round, key(msgs[i]), key(msgs[j]))
				}
			}
		}

		// Shuffle-invariance: every delivery interleaving sorts identically.
		ref := make([]smsg, len(msgs))
		copy(ref, msgs)
		sortSmsgs(ref)
		for shuffle := 0; shuffle < 8; shuffle++ {
			got := make([]smsg, len(msgs))
			copy(got, msgs)
			for i := len(got) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				got[i], got[j] = got[j], got[i]
			}
			sortSmsgs(got)
			for i := range ref {
				if key(ref[i]) != key(got[i]) {
					t.Fatalf("round %d shuffle %d: position %d has %s, reference %s",
						round, shuffle, i, key(got[i]), key(ref[i]))
				}
			}
		}
	}
}

// TestSmsgSeqResetWouldBreakTotality documents why the audit matters: with a
// (hypothetically) reset sequence counter, two distinct messages from one
// source collide and the order stops being total. The assertion is inverted
// — it proves the property test above would catch the regression.
func TestSmsgSeqResetWouldBreakTotality(t *testing.T) {
	a := smsg{at: 5, to: 1, from: 0, seq: 1}
	b := smsg{at: 5, to: 1, from: 0, seq: 1} // same seq: what a per-epoch reset would produce
	if a.less(b) || b.less(a) {
		t.Fatal("expected order-equality for colliding seq — the totality check depends on it")
	}
	b.seq = 2
	if !a.less(b) || b.less(a) {
		t.Fatal("monotonic seq must order same-(at,to,from) messages")
	}
}

// TestShardedSeqMonotonicAcrossEpochs pins the no-reset property on the real
// executor: two messages submitted from the same shard in different epochs
// (and different RunUntil calls), due at the same instant at the same
// destination, must deliver in submission order — which holds only if the
// sender's seq counter survives epoch merges and run boundaries.
func TestShardedSeqMonotonicAcrossEpochs(t *testing.T) {
	la := 5 * time.Microsecond
	s := NewSharded(2, la)
	defer s.Close()
	var log []string
	target := ktime.Time(0).Add(ktime.Duration(100 * time.Microsecond))
	// Epoch 1 (first run window): shard 1 sends "first" due at 100µs.
	s.Shard(1).Post(2*time.Microsecond, func() {
		s.Send(1, 0, target, func() { log = append(log, "first") })
	})
	s.RunUntil(ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond)))
	// Later epoch, separate run: shard 1 sends "second", same (at, to, from).
	s.Shard(1).Post(20*time.Microsecond, func() {
		s.Send(1, 0, target, func() { log = append(log, "second") })
	})
	s.RunUntilIdle()
	if fmt.Sprint(log) != "[first second]" {
		t.Fatalf("cross-epoch same-instant delivery order %v, want [first second]", log)
	}
	if s.MsgsSent() != 2 || s.MsgsDelivered() != 2 {
		t.Fatalf("sent/delivered = %d/%d, want 2/2", s.MsgsSent(), s.MsgsDelivered())
	}
}

// TestFleetSeqMonotonicAcrossRuns is the same pin one level up, on the
// fleet executor's per-source counters.
func TestFleetSeqMonotonicAcrossRuns(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	defer f.Close()
	e0, e1 := New(), New()
	f.AddNode(e0)
	f.AddNode(e1)
	src := f.AddSource(0)
	var log []string
	names := []string{"first", "second"}
	f.SetHandler(1, func(_ ktime.Time, m Msg) { log = append(log, names[m.A]) })
	target := ktime.Time(0).Add(ktime.Duration(200 * time.Microsecond))
	e0.Post(time.Microsecond, func() {
		f.Send(src, 1, target, Msg{A: 0})
	})
	f.RunUntil(ktime.Time(0).Add(ktime.Duration(50 * time.Microsecond)))
	e0.Post(10*time.Microsecond, func() { // fires at 60µs, a later fleet run
		f.Send(src, 1, target, Msg{A: 1})
	})
	f.RunUntilIdle()
	if fmt.Sprint(log) != "[first second]" {
		t.Fatalf("cross-run same-instant commitment order %v, want [first second]", log)
	}
}
