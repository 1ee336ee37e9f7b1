package sim

import (
	"fmt"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// execRig is an Executor of n nodes in one of the two shapes it is built
// in: eng[i] is where node i's local work runs and where records committed
// for node i land, src[i] is node i's send context, and recv sees every
// record in node context at its instant.
type execRig struct {
	ex    *Executor
	inner []*Executor // the nodes, when they are executors
	eng   []*Engine
	src   []int
	recv  func(node int, m Msg)
}

// close stops the worker goroutines of every executor in the rig.
func (r *execRig) close() {
	r.ex.Close()
	for _, in := range r.inner {
		in.Close()
	}
}

// buildRig builds an execRig of n nodes with lookahead la.
type buildRig func(n int, la time.Duration, parallel bool) *execRig

// execShapes are the two node shapes an Executor drives: engines as nodes
// (one machine's shards) and executors as nodes (a fleet of machines, each
// record handed down through the inner executor's Inject).
var execShapes = []struct {
	name  string
	build buildRig
}{
	{"engines", func(n int, la time.Duration, parallel bool) *execRig {
		r := &execRig{ex: NewExecutor(la)}
		r.ex.SetParallel(parallel)
		for i := 0; i < n; i++ {
			eng := New()
			r.eng = append(r.eng, eng)
			r.ex.AddNode(eng)
			r.src = append(r.src, r.ex.AddSource(i))
			r.ex.SetHandler(i, NewInbox(eng, func(g []Msg) {
				for _, m := range g {
					r.recv(i, m)
				}
			}).Push)
		}
		return r
	}},
	{"executors", func(n int, la time.Duration, parallel bool) *execRig {
		r := &execRig{ex: NewExecutor(la)}
		r.ex.SetParallel(parallel)
		for i := 0; i < n; i++ {
			inner := NewExecutor(la / 4)
			inner.SetParallel(parallel)
			eng := New()
			inner.AddNode(eng)
			inner.SetHandler(0, NewInbox(eng, func(g []Msg) {
				for _, m := range g {
					r.recv(i, m)
				}
			}).Push)
			r.eng = append(r.eng, eng)
			r.inner = append(r.inner, inner)
			r.ex.AddNode(inner)
			r.src = append(r.src, r.ex.AddSource(i))
			r.ex.SetHandler(i, func(at ktime.Time, m Msg) { inner.Inject(0, at, m) })
		}
		return r
	}},
}

// The Sharded tests drive the engines-as-nodes shape (one machine's shards)
// and the Fleet tests the executors-as-nodes shape (a fleet of machines);
// checks shared by both live in a check* helper taking the shape.
var (
	shardedShape = execShapes[0].build
	fleetShape   = execShapes[1].build
)

// forEachShape runs f as one subtest per node shape.
func forEachShape(t *testing.T, f func(t *testing.T, build buildRig)) {
	for _, sh := range execShapes {
		t.Run(sh.name, func(t *testing.T) { f(t, sh.build) })
	}
}

// pingPong builds a deterministic workload: every node runs a local event
// chain and periodically sends a record to the next node, which logs it.
// Returns the per-node logs.
func pingPong(build buildRig, parallel bool, nodes, rounds int) [][]string {
	la := 2 * time.Microsecond
	r := build(nodes, la, parallel)
	defer r.close()
	logs := make([][]string, nodes)
	r.recv = func(node int, m Msg) {
		logs[node] = append(logs[node], fmt.Sprintf("msg from %d @%d", m.A, r.eng[node].Now()))
	}
	for i := 0; i < nodes; i++ {
		eng := r.eng[i]
		n := 0
		var local func()
		local = func() {
			n++
			logs[i] = append(logs[i], fmt.Sprintf("local %d @%d", n, eng.Now()))
			if n < rounds {
				eng.Post(ktime.Duration(300+50*i)*time.Nanosecond, local)
			}
			if n%3 == 0 {
				at := eng.Now().Add(la + ktime.Duration(i)*100)
				r.ex.Send(r.src[i], (i+1)%nodes, at, Msg{A: int32(i)})
			}
		}
		eng.Post(time.Microsecond, local)
	}
	r.ex.RunUntilIdle()
	return logs
}

// checkSerialParallel is the core determinism oracle: the parallel drive
// must produce byte-identical per-node logs to the serial drive, and a
// second parallel run the same logs again — determinism across runs, not
// only across drive modes. Run with -race this also proves the epoch
// barriers are sound.
func checkSerialParallel(t *testing.T, build buildRig) {
	serial := fmt.Sprint(pingPong(build, false, 4, 60))
	for run := 0; run < 2; run++ {
		if par := fmt.Sprint(pingPong(build, true, 4, 60)); par != serial {
			t.Fatalf("parallel run %d diverges from serial:\n%s\n%s", run, par, serial)
		}
	}
}

func TestShardedSerialParallelIdentity(t *testing.T) { checkSerialParallel(t, shardedShape) }
func TestFleetSerialParallelIdentity(t *testing.T)   { checkSerialParallel(t, fleetShape) }

// TestShardedRepeatedRunsIdentical: the same parallel workload, at another
// size, twice gives the same logs.
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	a := fmt.Sprint(pingPong(shardedShape, true, 3, 40))
	if b := fmt.Sprint(pingPong(shardedShape, true, 3, 40)); a != b {
		t.Fatalf("parallel runs diverge:\n%s\n%s", a, b)
	}
}

// TestShardedBatchHooks: every record due at one instant for one engine —
// injections first, then node traffic in merge order — drains through its
// Inbox as one group, the bracket the sharded kernel opens one IPI batch
// window around; a later instant opens a group of its own.
func TestShardedBatchHooks(t *testing.T) {
	ex := NewExecutor(time.Microsecond)
	var trace []string
	for i := 0; i < 2; i++ {
		eng := New()
		ex.AddNode(eng)
		ex.SetHandler(i, NewInbox(eng, func(g []Msg) {
			trace = append(trace, fmt.Sprintf("begin %d", i))
			for _, m := range g {
				trace = append(trace, fmt.Sprintf("msg %d", m.A))
			}
			trace = append(trace, fmt.Sprintf("end %d", i))
		}).Push)
	}
	src := ex.AddSource(0)
	at := ktime.Time(0).Add(3 * time.Microsecond)
	for i := 0; i < 4; i++ {
		ex.Send(src, 1, at, Msg{A: int32(i)})
	}
	ex.Inject(1, at, Msg{A: 9})
	ex.Send(src, 1, at.Add(time.Microsecond), Msg{A: 4})
	ex.RunUntilIdle()
	want := "[begin 1 msg 9 msg 0 msg 1 msg 2 msg 3 end 1 begin 1 msg 4 end 1]"
	if got := fmt.Sprint(trace); got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestExecutorNestedDriveModes runs executors of two engines each as the
// nodes of an outer executor: the two-level protocol (outer epochs over
// inner epochs over engines) must stay deterministic across all four
// drive-mode combinations, with records forwarded to the shard they name.
func TestExecutorNestedDriveModes(t *testing.T) {
	run := func(outerPar, innerPar bool) [][]string {
		const machines, shardsPer = 3, 2
		netLA := 50 * time.Microsecond
		ipiLA := 2 * time.Microsecond
		f := NewExecutor(netLA)
		defer f.Close()
		f.SetParallel(outerPar)
		engs := make([][]*Engine, machines)
		srcs := make([]int, machines)
		logs := make([][]string, machines)
		for m := 0; m < machines; m++ {
			inner := NewExecutor(ipiLA)
			defer inner.Close()
			inner.SetParallel(innerPar)
			for s := 0; s < shardsPer; s++ {
				eng := New()
				engs[m] = append(engs[m], eng)
				inner.AddNode(eng)
				inner.SetHandler(s, NewInbox(eng, func(g []Msg) {
					for _, msg := range g {
						logs[m] = append(logs[m], fmt.Sprintf("m%d got msg from %d on shard %d @%d",
							m, msg.A, s, eng.Now()))
					}
				}).Push)
			}
			f.AddNode(inner)
			// One outer source per machine: all sends below originate from
			// shard 0's context.
			srcs[m] = f.AddSource(m)
			f.SetHandler(m, func(at ktime.Time, msg Msg) { inner.Inject(int(msg.B), at, msg) })
		}
		for m := 0; m < machines; m++ {
			eng := engs[m][0]
			n := 0
			var local func()
			local = func() {
				n++
				logs[m] = append(logs[m], fmt.Sprintf("m%d local %d @%d", m, n, eng.Now()))
				if n < 25 {
					eng.Post(3*time.Microsecond, local)
				}
				if n%4 == 0 {
					// Alternate the target shards.
					f.Send(srcs[m], (m+1)%machines, eng.Now().Add(ktime.Duration(netLA)),
						Msg{A: int32(m), B: int32(n % shardsPer)})
				}
			}
			eng.Post(time.Microsecond, local)
		}
		f.RunUntilIdle()
		return logs
	}
	ref := fmt.Sprint(run(false, false))
	for _, mode := range []struct {
		outerPar, innerPar bool
		name               string
	}{{true, false, "outer-par"}, {false, true, "inner-par"}, {true, true, "both-par"}} {
		if got := fmt.Sprint(run(mode.outerPar, mode.innerPar)); got != ref {
			t.Fatalf("%s diverges from serial:\n%s\n%s", mode.name, got, ref)
		}
	}
}

// TestExecutorMergeOrder pins the deterministic merge tiebreak: records due
// at the same instant commit ordered by destination node, then source,
// then send sequence.
func TestExecutorMergeOrder(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		r := build(3, time.Microsecond, false)
		names := []string{"2→1 a", "2→1 b", "1→0", "0→1", "0→2"}
		var order []string
		r.recv = func(_ int, m Msg) { order = append(order, names[m.A]) }
		at := ktime.Time(0).Add(5 * time.Microsecond)
		// Sent from node context before any run (all clocks at 0).
		r.ex.Send(r.src[2], 1, at, Msg{A: 0})
		r.ex.Send(r.src[2], 1, at, Msg{A: 1}) // same tuple: send-seq breaks the tie
		r.ex.Send(r.src[1], 0, at, Msg{A: 2})
		r.ex.Send(r.src[0], 1, at, Msg{A: 3})
		r.ex.Send(r.src[0], 2, at, Msg{A: 4})
		r.ex.RunUntilIdle()
		if got, want := fmt.Sprint(order), "[1→0 0→1 2→1 a 2→1 b 0→2]"; got != want {
			t.Fatalf("merge order = %v, want %v", got, want)
		}
		if r.ex.MsgsDelivered() != 5 || r.ex.MsgsSent() != 5 {
			t.Fatalf("sent=%d delivered=%d", r.ex.MsgsSent(), r.ex.MsgsDelivered())
		}
	})
}

// checkSendUnderLookaheadPanics: a record due before now+lookahead would
// race the epoch protocol and must be rejected loudly.
func checkSendUnderLookaheadPanics(t *testing.T, build buildRig) {
	r := build(2, time.Microsecond, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Send under the lookahead floor did not panic")
		}
	}()
	r.ex.Send(r.src[0], 1, ktime.Time(0).Add(500*time.Nanosecond), Msg{})
}

func TestShardedSendUnderLookaheadPanics(t *testing.T) {
	checkSendUnderLookaheadPanics(t, shardedShape)
}
func TestFleetSendUnderLookaheadPanics(t *testing.T) { checkSendUnderLookaheadPanics(t, fleetShape) }

// checkRunUntilComposes: clocks land exactly on every bound and
// back-to-back RunUntil calls behave like one long run.
func checkRunUntilComposes(t *testing.T, build buildRig) {
	run := func(steps int) (*execRig, int) {
		r := build(2, time.Microsecond, false)
		count := 0
		for _, eng := range r.eng {
			eng := eng
			var chain func()
			chain = func() { count++; eng.Post(10*time.Microsecond, chain) }
			eng.Post(10*time.Microsecond, chain)
		}
		for i := 1; i <= steps; i++ {
			bound := ktime.Time(0).Add(time.Duration(i) * time.Millisecond / time.Duration(steps))
			r.ex.RunUntil(bound)
			for n, eng := range r.eng {
				if eng.Now() != bound {
					t.Fatalf("after RunUntil(%v): node %d clock %v", bound, n, eng.Now())
				}
			}
		}
		return r, count
	}
	a, ca := run(1)
	b, cb := run(10)
	if ca != cb {
		t.Fatalf("split runs fired %d events, one run fired %d", cb, ca)
	}
	if a.ex.Now() != b.ex.Now() {
		t.Fatalf("floors: %v vs %v", a.ex.Now(), b.ex.Now())
	}
}

func TestShardedRunUntilComposes(t *testing.T) { checkRunUntilComposes(t, shardedShape) }
func TestFleetRunUntilComposes(t *testing.T)   { checkRunUntilComposes(t, fleetShape) }

// TestExecutorEpochJumpsDeadTime: with sparse events the executor must not
// grind through empty lookahead windows — epochs jump to the next event.
func TestExecutorEpochJumpsDeadTime(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		r := build(4, time.Microsecond, false)
		fired := 0
		// Two events a full second apart: epoch count must stay tiny.
		r.eng[0].Post(time.Second, func() { fired++ })
		r.eng[3].Post(2*time.Second, func() { fired++ })
		r.ex.RunUntilIdle()
		if fired != 2 {
			t.Fatalf("fired %d", fired)
		}
		if r.ex.Epochs() > 8 {
			t.Fatalf("%d epochs for two sparse events — dead time not skipped", r.ex.Epochs())
		}
	})
}

// checkSeqMonotonic pins the no-reset property of the per-source send
// sequences: two records submitted from the same source in different
// epochs and different RunUntil calls, due at the same instant at the same
// destination, must commit in submission order — which holds only if the
// counter survives epoch merges and run boundaries.
func checkSeqMonotonic(t *testing.T, build buildRig) {
	r := build(2, 5*time.Microsecond, false)
	names := []string{"first", "second"}
	var log []string
	r.recv = func(_ int, m Msg) { log = append(log, names[m.A]) }
	target := ktime.Time(0).Add(ktime.Duration(100 * time.Microsecond))
	// First run window: node 1 sends "first" due at 100µs.
	r.eng[1].Post(2*time.Microsecond, func() { r.ex.Send(r.src[1], 0, target, Msg{A: 0}) })
	r.ex.RunUntil(ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond)))
	// Later epoch, separate run: "second", same (at, to, from).
	r.eng[1].Post(20*time.Microsecond, func() { r.ex.Send(r.src[1], 0, target, Msg{A: 1}) })
	r.ex.RunUntilIdle()
	if fmt.Sprint(log) != "[first second]" {
		t.Fatalf("cross-run same-instant delivery order %v, want [first second]", log)
	}
	if r.ex.MsgsSent() != 2 || r.ex.MsgsDelivered() != 2 {
		t.Fatalf("sent/delivered = %d/%d, want 2/2", r.ex.MsgsSent(), r.ex.MsgsDelivered())
	}
}

func TestShardedSeqMonotonicAcrossEpochs(t *testing.T) { checkSeqMonotonic(t, shardedShape) }
func TestFleetSeqMonotonicAcrossRuns(t *testing.T)     { checkSeqMonotonic(t, fleetShape) }

// TestExecutorInjectOrdering pins the Inject contract: injected records
// commit at their instant before same-instant node traffic, in injection
// order.
func TestExecutorInjectOrdering(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		for _, par := range []bool{false, true} {
			r := build(2, 5*time.Microsecond, par)
			var log []string
			r.recv = func(node int, m Msg) { log = append(log, fmt.Sprintf("%c on %d", rune(m.A), node)) }
			at := ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond))
			// A node-1 → node-0 record at the same instant as two
			// injections: the injections (source -1) must commit first.
			r.eng[1].Post(10*time.Microsecond, func() { r.ex.Send(r.src[1], 0, at, Msg{A: 'S'}) })
			r.ex.Inject(0, at, Msg{A: 'A'})
			r.ex.Inject(0, at, Msg{A: 'B'})
			r.ex.RunUntilIdle()
			r.close()
			if got, want := fmt.Sprint(log), "[A on 0 B on 0 S on 0]"; got != want {
				t.Fatalf("parallel=%v: delivery order %v, want %v", par, got, want)
			}
		}
	})
}

// TestExecutorNextEventTime checks the probe an enclosing executor relies
// on sees both node events and in-flight records.
func TestExecutorNextEventTime(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		r := build(2, 5*time.Microsecond, false)
		if _, ok := r.ex.NextEventTime(); ok {
			t.Fatal("empty executor reports pending work")
		}
		r.eng[1].Post(40*time.Microsecond, func() {})
		if at, ok := r.ex.NextEventTime(); !ok || at != ktime.Time(0).Add(ktime.Duration(40*time.Microsecond)) {
			t.Fatalf("NextEventTime = %v,%v want 40µs", at, ok)
		}
		msgAt := ktime.Time(0).Add(ktime.Duration(10 * time.Microsecond))
		r.ex.Inject(0, msgAt, Msg{})
		if at, ok := r.ex.NextEventTime(); !ok || at != msgAt {
			t.Fatalf("NextEventTime = %v,%v want 10µs (pending record)", at, ok)
		}
	})
}

// TestExecutorKill checks fail-stop semantics: a killed node freezes at the
// kill instant, later records to it are dropped and counted, and the rest
// of the executor keeps running — identically in serial and parallel
// drives.
func TestExecutorKill(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		run := func(parallel bool) (survivor, victim []string, dropped uint64, victimNow ktime.Time) {
			r := build(2, 10*time.Microsecond, parallel)
			defer r.close()
			logs := [2][]string{}
			r.recv = func(node int, _ Msg) { logs[node] = append(logs[node], "ghost") }
			for i, eng := range r.eng {
				n := 0
				var tick func()
				tick = func() {
					n++
					logs[i] = append(logs[i], fmt.Sprintf("tick %d @%d", n, eng.Now()))
					if n < 40 {
						eng.Post(5*time.Microsecond, tick)
					}
				}
				eng.Post(time.Microsecond, tick)
			}
			// Kill node 1 at t=50µs via a record, then keep sending to the
			// corpse: those sends must be dropped.
			killAt := ktime.Time(0).Add(ktime.Duration(50 * time.Microsecond))
			r.ex.Send(r.src[0], 1, killAt, Msg{Kind: KindKill})
			for i := 1; i <= 5; i++ {
				r.ex.Send(r.src[0], 1, killAt.Add(ktime.Duration(i)*ktime.Duration(10*time.Microsecond)), Msg{})
			}
			r.ex.RunUntil(ktime.Time(0).Add(ktime.Duration(300 * time.Microsecond)))
			return logs[0], logs[1], r.ex.MsgsDropped(), r.eng[1].Now()
		}
		s1, v1, d1, n1 := run(false)
		s2, v2, d2, n2 := run(true)
		if d1 != 5 || d2 != 5 {
			t.Fatalf("dropped = %d serial / %d parallel, want 5", d1, d2)
		}
		if len(s1) != 40 {
			t.Fatalf("survivor ran %d ticks, want all 40", len(s1))
		}
		for _, v := range [][]string{v1, v2} {
			for _, e := range v {
				if e == "ghost" {
					t.Fatal("record delivered to a dead node")
				}
			}
		}
		if fmt.Sprint(s1, v1, n1) != fmt.Sprint(s2, v2, n2) {
			t.Fatalf("serial and parallel kill runs diverge:\n%v %v %v\n%v %v %v", s1, v1, n1, s2, v2, n2)
		}
		// The victim's clock froze at (or before) the epoch boundary of the
		// kill; it must not have reached the bound.
		if n1 >= ktime.Time(0).Add(ktime.Duration(300*time.Microsecond)) {
			t.Fatalf("victim clock advanced to %v after kill", n1)
		}
	})
}

// TestExecutorRecordMisuse pins the ways a record can go wrong: a kill
// riding the handoff path (which commits early, before the floor reaches
// the kill instant), a record for a node that registered no handler, and an
// injection toward one. All must panic rather than misdeliver.
func TestExecutorRecordMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	at := ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond))
	bare := func() *Executor {
		e := NewExecutor(10 * time.Microsecond)
		e.AddNode(New())
		e.AddNode(New())
		return e
	}
	mustPanic("KindKill through SendHandoff", func() {
		e := bare()
		e.SendHandoff(e.AddSource(0), 1, at, Msg{Kind: KindKill})
	})
	mustPanic("record for a node without a handler", func() {
		e := bare()
		e.Send(e.AddSource(0), 1, at, Msg{})
		e.RunUntilIdle()
	})
	mustPanic("Inject without a handler", func() { bare().Inject(0, at, Msg{}) })
}

// TestExecutorZeroAllocSteadyState: a steady state of local event chains
// plus record traffic between nodes must not allocate per epoch.
func TestExecutorZeroAllocSteadyState(t *testing.T) {
	forEachShape(t, func(t *testing.T, build buildRig) {
		la := time.Microsecond
		r := build(2, la, false)
		r.recv = func(int, Msg) {}
		for i, eng := range r.eng {
			eng := eng
			n := 0
			var chain func()
			chain = func() {
				if n++; n%4 == 0 {
					r.ex.Send(r.src[i], 1-i, eng.Now().Add(la), Msg{A: int32(n)})
				}
				eng.Post(500*time.Nanosecond, chain)
			}
			eng.Post(500*time.Nanosecond, chain)
		}
		// Warm past a full wheel rotation so every slot's backing slice exists.
		r.ex.RunUntil(ktime.Time(0).Add(5 * time.Millisecond))
		end := r.ex.Now()
		allocs := testing.AllocsPerRun(200, func() {
			end = end.Add(10 * time.Microsecond)
			r.ex.RunUntil(end)
		})
		if allocs != 0 {
			t.Fatalf("steady state allocates %.1f/run, want 0", allocs)
		}
		if r.ex.MsgsDelivered() == 0 {
			t.Fatal("no records delivered — the message path was not exercised")
		}
	})
}
