package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"enoki/internal/kernel"
)

// TestClusterLifecycle walks the happy path: jobs are placed, run, and
// complete, and the control-plane accounting agrees with the machines.
func TestClusterLifecycle(t *testing.T) {
	c := New(Config{Machines: 2})
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Submit(JobSpec{Cycles: 3, Run: 150 * time.Microsecond, Sleep: 200 * time.Microsecond})
	}
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 5 || st.Submitted != 5 {
		t.Fatalf("done/submitted = %d/%d, want 5/5", st.Done, st.Submitted)
	}
	if st.TasksSpawned != 5 {
		t.Fatalf("machines spawned %d tasks, want 5", st.TasksSpawned)
	}
	if st.PlaceP99 <= 0 || st.E2EP99 < st.PlaceP50 {
		t.Fatalf("latency accounting broken: place p99 %v, e2e p99 %v", st.PlaceP99, st.E2EP99)
	}
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone || j.CyclesLeft != 0 {
			t.Fatalf("job %d finished as %v with %d cycles left", i, j.State, j.CyclesLeft)
		}
		if j.DoneAt <= j.StartedAt || j.StartedAt <= j.SubmittedAt {
			t.Fatalf("job %d timeline out of order: %v / %v / %v", i, j.SubmittedAt, j.StartedAt, j.DoneAt)
		}
	}
	if st.MsgsDelivered == 0 || st.MsgsDropped != 0 {
		t.Fatalf("fleet delivered %d dropped %d, want >0 and 0", st.MsgsDelivered, st.MsgsDropped)
	}
}

// TestClusterRoundRobinSpreads pins the round-robin placer: six jobs on
// three machines land two per machine.
func TestClusterRoundRobinSpreads(t *testing.T) {
	c := New(Config{Machines: 3, Placer: &RoundRobin{}})
	defer c.Close()
	for i := 0; i < 6; i++ {
		c.Submit(JobSpec{Cycles: 2})
	}
	c.RunUntilIdle()
	perMachine := map[int]int{}
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone {
			t.Fatalf("job %d not done: %v", i, j.State)
		}
		perMachine[j.Machine]++
	}
	for m := 0; m < 3; m++ {
		if perMachine[m] != 2 {
			t.Fatalf("machine loads %v, want 2 each", perMachine)
		}
	}
}

// TestClusterRebalanceMigrates packs everything onto machine 0, then lets
// the rebalancer migrate jobs toward machine 1 mid-run: migrations must
// checkpoint progress and every job must still finish.
func TestClusterRebalanceMigrates(t *testing.T) {
	c := New(Config{
		Machines:        2,
		Placer:          &Pack{PerCPU: 8},
		RebalanceSpread: 1,
	})
	defer c.Close()
	for i := 0; i < 12; i++ {
		c.Submit(JobSpec{Cycles: 40, Run: 100 * time.Microsecond})
	}
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	if st.Migrations == 0 || st.StopsSent == 0 {
		t.Fatalf("rebalancer idle: %d migrations, %d stops", st.Migrations, st.StopsSent)
	}
	moved := 0
	for i := 0; i < c.NumJobs(); i++ {
		if j := c.Job(i); j.Migrations > 0 {
			moved++
			if j.CyclesLeft != 0 {
				t.Fatalf("migrated job %d lost its checkpoint: %d cycles left", i, j.CyclesLeft)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no job records a migration")
	}
}

// TestClusterFailover kills a machine mid-run: its jobs restart from their
// last checkpoint on the survivor and everything still completes.
func TestClusterFailover(t *testing.T) {
	c := New(Config{Machines: 2, Placer: &RoundRobin{}})
	defer c.Close()
	for i := 0; i < 8; i++ {
		c.Submit(JobSpec{Cycles: 20, Run: 150 * time.Microsecond, Sleep: 100 * time.Microsecond})
	}
	c.FailMachine(0, 2*time.Millisecond)
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 8 {
		t.Fatalf("done = %d, want 8 (stats %+v)", st.Done, st)
	}
	if st.Lost == 0 {
		t.Fatal("no job was lost to the failure")
	}
	if st.MachinesAlive != 1 {
		t.Fatalf("machines alive = %d, want 1", st.MachinesAlive)
	}
	restarted := 0
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone {
			t.Fatalf("job %d not done: %v", i, j.State)
		}
		if j.Restarts > 0 {
			restarted++
			if j.Machine != 1 {
				t.Fatalf("restarted job %d finished on dead machine %d", i, j.Machine)
			}
		}
	}
	if restarted != st.Lost {
		t.Fatalf("restarted jobs %d != lost placements %d", restarted, st.Lost)
	}
	// The frozen machine's clock must trail the fleet floor.
	if now := c.Machine(0).Sharded().Now(); now >= c.Now() {
		t.Fatalf("dead machine clock %v reached fleet floor %v", now, c.Now())
	}
}

// TestFailMachineTooSoonPanics pins the argument check of FailMachine: a
// failure instant under one network latency past now cannot ride the fleet,
// and the panic must say so in cluster terms. An instant exactly one
// latency out is the earliest accepted.
func TestFailMachineTooSoonPanics(t *testing.T) {
	c := New(Config{Machines: 2, NetLatency: 50 * time.Microsecond})
	defer c.Close()
	c.Run(time.Millisecond)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "cluster: FailMachine(1, 1.049ms)") {
				t.Fatalf("panic %q, want a cluster-level FailMachine message", msg)
			}
		}()
		c.FailMachine(1, time.Millisecond+49*time.Microsecond)
	}()
	c.FailMachine(1, time.Millisecond+50*time.Microsecond)
	c.Run(time.Millisecond)
	if alive := c.Stats().MachinesAlive; alive != 1 {
		t.Fatalf("machines alive = %d after the accepted failure, want 1", alive)
	}
}

// TestClusterAllDeadTerminates pins the liveness of the control loop: with
// every machine dead and jobs stranded Pending, the reconciler goes
// quiescent instead of ticking forever, so RunUntilIdle returns.
func TestClusterAllDeadTerminates(t *testing.T) {
	c := New(Config{Machines: 1})
	defer c.Close()
	c.Submit(JobSpec{Cycles: 1 << 20, Run: time.Millisecond})
	c.FailMachine(0, time.Millisecond)
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 0 || st.MachinesAlive != 0 {
		t.Fatalf("done/alive = %d/%d, want 0/0", st.Done, st.MachinesAlive)
	}
	if j := c.Job(0); j.State != JobPending || j.Restarts != 1 {
		t.Fatalf("stranded job state %v restarts %d, want pending/1", j.State, j.Restarts)
	}
}

// TestClusterCloseIdempotence mirrors the system-level Close hardening:
// first Close succeeds, the second reports ErrClosed, and post-Close use
// panics.
func TestClusterCloseIdempotence(t *testing.T) {
	c := New(Config{Machines: 1, Parallel: true})
	c.Submit(JobSpec{})
	c.Run(5 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	err := c.Close()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on closed cluster did not panic")
		}
	}()
	c.Submit(JobSpec{})
}

// TestClusterNUMAMachines runs two-node machines inside the fleet: jobs
// spread across shards by id, exercising the nested (fleet-over-IPI)
// executor stack.
func TestClusterNUMAMachines(t *testing.T) {
	m := kernel.MachineNUMA("fleet16", 2, 2, 4)
	c := New(Config{Machines: 3, Machine: m})
	defer c.Close()
	for i := 0; i < 12; i++ {
		c.Submit(JobSpec{Cycles: 4, Run: 120 * time.Microsecond, Sleep: 80 * time.Microsecond})
	}
	c.RunUntilIdle()
	if st := c.Stats(); st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	shards := map[int]bool{}
	for i := 0; i < c.NumJobs(); i++ {
		shards[c.Job(i).Shard] = true
	}
	if !shards[0] || !shards[1] {
		t.Fatalf("jobs used shards %v, want both NUMA nodes", shards)
	}
}

// TestPlacerByName covers the CLI mapping.
func TestPlacerByName(t *testing.T) {
	for _, name := range []string{"roundrobin", "leastloaded", "pack"} {
		p := PlacerByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("PlacerByName(%q) = %v", name, p)
		}
	}
	if PlacerByName("nope") != nil {
		t.Fatal("unknown placer name must map to nil")
	}
}
