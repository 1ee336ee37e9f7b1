package sim

import (
	"fmt"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// fleetPingPong builds a deterministic fleet of plain engines: every node
// runs a local event chain and periodically sends a record to the next
// node, whose handler posts the log entry into the destination engine at
// the delivery instant. Returns the per-node logs.
func fleetPingPong(parallel bool, nodes, rounds int) [][]string {
	la := 20 * time.Microsecond
	f := NewFleet(la)
	defer f.Close()
	f.SetParallel(parallel)
	engs := make([]*Engine, nodes)
	srcs := make([]int, nodes)
	logs := make([][]string, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		engs[i] = New()
		f.AddNode(engs[i])
		srcs[i] = f.AddSource(i)
		// Commitment: hand the payload to the destination engine for
		// execution at the delivery instant.
		f.SetHandler(i, func(at ktime.Time, m Msg) {
			engs[i].PostAt(at, func() {
				logs[i] = append(logs[i], fmt.Sprintf("msg from %d @%d", m.A, engs[i].Now()))
			})
		})
	}
	for i := 0; i < nodes; i++ {
		i := i
		eng := engs[i]
		n := 0
		var local func()
		local = func() {
			n++
			logs[i] = append(logs[i], fmt.Sprintf("local %d @%d", n, eng.Now()))
			if n < rounds {
				eng.Post(ktime.Duration(2+time.Duration(i))*time.Microsecond, local)
			}
			if n%3 == 0 {
				to := (i + 1) % nodes
				at := eng.Now().Add(ktime.Duration(la) + ktime.Duration(i)*100)
				f.Send(srcs[i], to, at, Msg{A: int32(i)})
			}
		}
		eng.Post(time.Microsecond, local)
	}
	f.RunUntilIdle()
	return logs
}

// TestFleetSerialParallelIdentity is the fleet-level determinism oracle:
// worker-goroutine and serial drives must produce byte-identical per-node
// logs. Under -race this also proves the epoch barriers are sound.
func TestFleetSerialParallelIdentity(t *testing.T) {
	serial := fleetPingPong(false, 5, 40)
	par := fleetPingPong(true, 5, 40)
	for i := range serial {
		if len(serial[i]) != len(par[i]) {
			t.Fatalf("node %d: %d serial entries vs %d parallel", i, len(serial[i]), len(par[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != par[i][j] {
				t.Fatalf("node %d diverges at %d: %q vs %q", i, j, serial[i][j], par[i][j])
			}
		}
	}
}

// TestFleetShardedNodes runs whole Sharded executors as fleet members: the
// two-level protocol (fleet epochs over machine epochs over shard engines)
// must stay deterministic across all four drive-mode combinations.
func TestFleetShardedNodes(t *testing.T) {
	run := func(fleetPar, machinePar bool) [][]string {
		const machines, shardsPer = 3, 2
		netLA := 50 * time.Microsecond
		ipiLA := 2 * time.Microsecond
		f := NewFleet(netLA)
		defer f.Close()
		f.SetParallel(fleetPar)
		sk := make([]*Sharded, machines)
		srcs := make([]int, machines)
		logs := make([][]string, machines)
		for m := 0; m < machines; m++ {
			m := m
			sk[m] = NewSharded(shardsPer, ipiLA)
			defer sk[m].Close()
			sk[m].SetParallel(machinePar)
			f.AddNode(sk[m])
			// One fleet source per machine: all sends below originate from
			// shard 0's context.
			srcs[m] = f.AddSource(m)
			// Commitment: inject into the destination machine on the shard
			// the record names.
			f.SetHandler(m, func(at ktime.Time, msg Msg) { sk[m].Inject(int(msg.B), at, msg) })
			sk[m].SetInjectHandler(func(shard int, msg Msg) {
				logs[m] = append(logs[m], fmt.Sprintf("m%d got msg from %d on shard %d @%d",
					m, msg.A, shard, sk[m].Shard(shard).Now()))
			})
		}
		for m := 0; m < machines; m++ {
			m := m
			eng := sk[m].Shard(0)
			n := 0
			var local func()
			local = func() {
				n++
				logs[m] = append(logs[m], fmt.Sprintf("m%d local %d @%d", m, n, eng.Now()))
				if n < 25 {
					eng.Post(3*time.Microsecond, local)
				}
				if n%4 == 0 {
					to := (m + 1) % machines
					at := eng.Now().Add(ktime.Duration(netLA))
					// Alternate the target shards.
					f.Send(srcs[m], to, at, Msg{A: int32(m), B: int32(n % shardsPer)})
				}
			}
			eng.Post(time.Microsecond, local)
		}
		f.RunUntilIdle()
		return logs
	}
	ref := run(false, false)
	for _, mode := range []struct {
		fleetPar, machinePar bool
		name                 string
	}{{true, false, "fleet-par"}, {false, true, "machine-par"}, {true, true, "both-par"}} {
		got := run(mode.fleetPar, mode.machinePar)
		for i := range ref {
			if len(ref[i]) != len(got[i]) {
				t.Fatalf("%s node %d: %d vs %d entries", mode.name, i, len(ref[i]), len(got[i]))
			}
			for j := range ref[i] {
				if ref[i][j] != got[i][j] {
					t.Fatalf("%s node %d diverges at %d: %q vs %q", mode.name, i, j, ref[i][j], got[i][j])
				}
			}
		}
	}
}

// TestFleetKill checks fail-stop semantics: a killed node freezes at the
// kill instant, later messages to it are dropped and counted, and the rest
// of the fleet keeps running — identically in serial and parallel drives.
func TestFleetKill(t *testing.T) {
	run := func(parallel bool) (survivor []string, victim []string, dropped uint64, victimNow ktime.Time) {
		f := NewFleet(10 * time.Microsecond)
		defer f.Close()
		f.SetParallel(parallel)
		engs := [2]*Engine{New(), New()}
		f.AddNode(engs[0])
		f.AddNode(engs[1])
		src0 := f.AddSource(0)
		var sLog, vLog []string
		for i, log := range []*[]string{&sLog, &vLog} {
			i, log := i, log
			eng := engs[i]
			n := 0
			var tick func()
			tick = func() {
				n++
				*log = append(*log, fmt.Sprintf("tick %d @%d", n, eng.Now()))
				if n < 40 {
					eng.Post(5*time.Microsecond, tick)
				}
			}
			eng.Post(time.Microsecond, tick)
		}
		// Kill node 1 at t=50µs via a fleet message, then keep sending to the
		// corpse: those sends must be dropped.
		killAt := ktime.Time(0).Add(ktime.Duration(50 * time.Microsecond))
		f.Send(src0, 1, killAt, Msg{Kind: KindKill})
		f.SetHandler(1, func(at ktime.Time, _ Msg) {
			engs[1].PostAt(at, func() { vLog = append(vLog, "ghost") })
		})
		for i := 1; i <= 5; i++ {
			at := killAt.Add(ktime.Duration(i) * ktime.Duration(10*time.Microsecond))
			f.Send(src0, 1, at, Msg{})
		}
		f.RunUntil(ktime.Time(0).Add(ktime.Duration(300 * time.Microsecond)))
		return sLog, vLog, f.MsgsDropped(), engs[1].Now()
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
				t.Fatal("message delivered to a dead node")
			}
		}
	}
	if fmt.Sprint(s1, v1, n1) != fmt.Sprint(s2, v2, n2) {
		t.Fatalf("serial and parallel kill runs diverge:\n%v %v %v\n%v %v %v", s1, v1, n1, s2, v2, n2)
	}
	// The victim's clock froze at (or before) the epoch boundary of the kill;
	// it must not have reached the fleet bound.
	if n1 >= ktime.Time(0).Add(ktime.Duration(300*time.Microsecond)) {
		t.Fatalf("victim clock advanced to %v after kill", n1)
	}
}

// TestFleetSendUnderLookaheadPanics pins the lookahead floor.
func TestFleetSendUnderLookaheadPanics(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	f.AddNode(New())
	f.AddNode(New())
	src := f.AddSource(0)
	defer func() {
		if recover() == nil {
			t.Fatal("send under the lookahead floor did not panic")
		}
	}()
	f.Send(src, 1, ktime.Time(0).Add(ktime.Duration(time.Microsecond)), Msg{})
}

// TestFleetKillRecordMisuse pins the two ways a KindKill record or a plain
// record can go wrong: a kill riding the handoff path (which commits early,
// before the floor reaches the kill instant) and a record for a node that
// registered no handler. Both must panic rather than misdeliver.
func TestFleetKillRecordMisuse(t *testing.T) {
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
	mustPanic("KindKill through SendHandoff", func() {
		f := NewFleet(10 * time.Microsecond)
		f.AddNode(New())
		f.AddNode(New())
		f.SendHandoff(f.AddSource(0), 1, at, Msg{Kind: KindKill})
	})
	mustPanic("record for a node without a handler", func() {
		f := NewFleet(10 * time.Microsecond)
		f.AddNode(New())
		f.AddNode(New())
		f.Send(f.AddSource(0), 1, at, Msg{})
		f.RunUntilIdle()
	})
	mustPanic("Inject without a handler", func() {
		NewSharded(2, 5*time.Microsecond).Inject(0, at, Msg{})
	})
}

// TestFleetRunUntilComposes checks that back-to-back RunUntil calls behave
// like one long run, with live node clocks in lockstep at each bound.
func TestFleetRunUntilComposes(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	e0, e1 := New(), New()
	f.AddNode(e0)
	f.AddNode(e1)
	fired := 0
	e1.Post(70*time.Microsecond, func() { fired++ })
	for i := 1; i <= 10; i++ {
		bound := ktime.Time(0).Add(ktime.Duration(i) * ktime.Duration(20*time.Microsecond))
		f.RunUntil(bound)
		if e0.Now() != bound || e1.Now() != bound {
			t.Fatalf("after RunUntil(%v): clocks %v / %v", bound, e0.Now(), e1.Now())
		}
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
}

// TestShardedInjectOrdering pins the Inject contract: injected messages
// deliver at their instant before same-instant shard traffic, in injection
// order, through the normal drain machinery.
func TestShardedInjectOrdering(t *testing.T) {
	la := 5 * time.Microsecond
	run := func(parallel bool) []string {
		s := NewSharded(2, la)
		defer s.Close()
		s.SetParallel(parallel)
		var log []string
		s.SetInjectHandler(func(shard int, m Msg) {
			log = append(log, fmt.Sprintf("inject %c on %d", rune(m.A), shard))
		})
		at := ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond))
		// A shard-1 → shard-0 message at the same instant as two injections:
		// the injections (source -1) must deliver first.
		s.Shard(1).Post(10*time.Microsecond, func() {
			s.Send(1, 0, at, func() { log = append(log, "from shard 1") })
		})
		s.Inject(0, at, Msg{A: 'A'})
		s.Inject(0, at, Msg{A: 'B'})
		s.RunUntilIdle()
		return log
	}
	want := []string{"inject A on 0", "inject B on 0", "from shard 1"}
	for _, par := range []bool{false, true} {
		got := run(par)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("parallel=%v: delivery order %v, want %v", par, got, want)
		}
	}
}

// TestShardedNextEventTime checks the fleet-facing probe sees both shard
// events and in-flight messages.
func TestShardedNextEventTime(t *testing.T) {
	s := NewSharded(2, 5*time.Microsecond)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty executor reports pending work")
	}
	s.Shard(1).Post(40*time.Microsecond, func() {})
	if at, ok := s.NextEventTime(); !ok || at != ktime.Time(0).Add(ktime.Duration(40*time.Microsecond)) {
		t.Fatalf("NextEventTime = %v,%v want 40µs", at, ok)
	}
	msgAt := ktime.Time(0).Add(ktime.Duration(10 * time.Microsecond))
	s.SetInjectHandler(func(int, Msg) {})
	s.Inject(0, msgAt, Msg{})
	if at, ok := s.NextEventTime(); !ok || at != msgAt {
		t.Fatalf("NextEventTime = %v,%v want 10µs (pending message)", at, ok)
	}
}
