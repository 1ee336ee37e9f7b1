package conformance

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/vpol"
)

// verifiedPrograms returns the two example bytecode policies the verified
// conformance sweep mounts above each case.
func verifiedPrograms() map[string]*vpol.Program {
	return map[string]*vpol.Program{
		"vfifo":  vpol.FIFOProgram(),
		"vdualq": vpol.DualQueueProgram(),
	}
}

// TestVerifiedConformanceMachine80 runs the full 7-class suite on the
// paper's 80-core box with a verified-tier program mounted above each case:
// every third workload task schedules through the interpreter while the
// rest exercise the case's own class, and the shared invariants (progress,
// no double-run, no leaks) must hold across the tier boundary.
func TestVerifiedConformanceMachine80(t *testing.T) {
	for vname, prog := range verifiedPrograms() {
		for _, c := range Cases() {
			c := c
			c.Verified = prog
			t.Run(fmt.Sprintf("%s/%s", vname, c.Name), func(t *testing.T) {
				t.Parallel()
				r := NewRigOn(c, kernel.Machine80(), enokic.DefaultConfig(), nil)
				ch := StartChecker(r, 500*time.Microsecond)
				w := Workload{Seed: 0x80 + uint64(len(c.Name)), Tasks: 60, Churn: true}
				done := w.Run(r)
				ch.Stop()
				if done != w.Tasks {
					t.Fatalf("%d/%d tasks completed", done, w.Tasks)
				}
				for _, v := range ch.Violations {
					t.Errorf("violation: %v", v)
				}
				if r.Verified.Killed() {
					t.Fatalf("verified class killed: %+v", r.Verified.Failure())
				}
				if r.Verified.Stats().Picks == 0 {
					t.Fatal("verified class never picked a task")
				}
				if n := r.K.NumTasks(); n != 0 {
					t.Fatalf("task table leaked %d entries", n)
				}
			})
		}
	}
}

// TestVerifiedShardedIdentity is the determinism claim with the verified
// tier active: serial and parallel sharded runs of the same seed, each
// shard carrying module + verified + CFS, must produce byte-identical
// per-shard record logs and identical counters.
func TestVerifiedShardedIdentity(t *testing.T) {
	c := Cases()[2] // wfq
	c.Verified = vpol.DualQueueProgram()
	m := kernel.Machine80()
	cfg := enokic.DefaultConfig()
	const seed, tasks = 0x5eed, 24
	budget := 60 * time.Millisecond

	serial := RecordShardedRun(c, m, cfg, seed, tasks, budget, false)
	parallel := RecordShardedRun(c, m, cfg, seed, tasks, budget, true)

	if len(serial.Violations) != 0 || len(parallel.Violations) != 0 {
		t.Fatalf("violations: serial=%v parallel=%v", serial.Violations, parallel.Violations)
	}
	// Pinned like goldenShardedDigest: the outcome of the executor this
	// test was first written against.
	if got, want := shardedDigest(serial), uint64(0x39952d13d5316457); got != want {
		t.Errorf("run digest %#016x, golden %#016x: the sharded outcome changed", got, want)
	}
	if serial.WorkloadDone != serial.WorkloadTasks {
		t.Fatalf("serial: %d/%d tasks completed", serial.WorkloadDone, serial.WorkloadTasks)
	}
	if serial.WorkloadDone != parallel.WorkloadDone || serial.PingersDone != parallel.PingersDone {
		t.Fatalf("completion drift: serial=(%d,%d) parallel=(%d,%d)",
			serial.WorkloadDone, serial.PingersDone, parallel.WorkloadDone, parallel.PingersDone)
	}
	if serial.CtxSwitches != parallel.CtxSwitches || serial.EventsFired != parallel.EventsFired {
		t.Fatalf("counter drift: serial=(%d,%d) parallel=(%d,%d)",
			serial.CtxSwitches, serial.EventsFired, parallel.CtxSwitches, parallel.EventsFired)
	}
	for i := range serial.Logs {
		if !bytes.Equal(serial.Logs[i], parallel.Logs[i]) {
			t.Fatalf("shard %d record log differs between serial and parallel (%d vs %d bytes)",
				i, len(serial.Logs[i]), len(parallel.Logs[i]))
		}
	}
}

// TestVerifiedTrapRehome pins the verified tier's fault road inside the
// conformance rig: a program that traps deterministically is killed, and
// every task it held still finishes under the fallback CFS.
func TestVerifiedTrapRehome(t *testing.T) {
	c := Case{Name: "cfs", Verified: vpol.MustAssemble(`
queues shared=1 local=0
enqueue:
    ldf r2, nice
    ldi r3, 1
    div r3, r2   ; nice is 0 for every workload task: traps on first enqueue
    enq shared, 0
    ret
pick:
    trypop shared, 0
    ret
`)}
	r := NewRig(c, enokic.DefaultConfig(), nil)
	w := Workload{Seed: 7, Tasks: 30}
	done := w.Run(r)
	if !r.Verified.Killed() {
		t.Fatal("verified class survived a guaranteed trap")
	}
	if f := r.Verified.Failure(); f == nil || f.Trap != vpol.TrapDivZero {
		t.Fatalf("failure = %+v, want TrapDivZero", r.Verified.Failure())
	}
	if done != w.Tasks {
		t.Fatalf("%d/%d tasks completed after rehome", done, w.Tasks)
	}
	if n := r.K.NumTasks(); n != 0 {
		t.Fatalf("task table leaked %d entries", n)
	}
}
