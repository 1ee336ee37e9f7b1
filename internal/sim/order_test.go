package sim

import (
	"fmt"
	"testing"

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
