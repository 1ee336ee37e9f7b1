// Package cluster simulates a fleet of machines under one deterministic
// clock: N sharded kernel stacks (one per machine, each a full Enoki
// simulation) plus a control-plane engine, all nodes of one sim.Executor
// whose lookahead is the network latency. The control plane is a cluster job
// scheduler in the jobScheduler/transformer/agent mold — a placer computes
// desired placements, a reconciler diffs desired against actual state and
// emits start/stop operations, and per-machine agents execute them — with
// every cross-machine interaction riding the fleet's (at, to, from, seq)
// merge order. Serial and worker-goroutine fleet drives therefore produce
// byte-identical per-machine simulations, including under machine failure:
// kills land on epoch boundaries, the failure detector fires a fixed delay
// later, and lost jobs restart from their last checkpoint.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/overload"
	"enoki/internal/sim"
)

// ErrClosed is returned (wrapped) by operations on a closed cluster.
var ErrClosed = errors.New("cluster closed")

// Config sizes and parameterizes a cluster. The zero value of every field
// except Machines takes a sensible default.
type Config struct {
	// Machines is the fleet size; required.
	Machines int
	// Machine is the per-machine topology (default kernel.Machine8). Every
	// machine shards by NUMA node exactly as a standalone ShardedKernel
	// would.
	Machine kernel.Machine
	// NetLatency is the minimum cross-machine message latency and therefore
	// the fleet epoch length (default 50µs).
	NetLatency time.Duration
	// ReconcileEvery is the control-plane reconcile interval (default
	// 200µs).
	ReconcileEvery time.Duration
	// DetectDelay is the failure detector's bound: a machine killed at T is
	// declared dead at T+DetectDelay (default 500µs).
	DetectDelay time.Duration
	// Placer is the placement policy (default LeastLoaded).
	Placer Placer
	// RebalanceSpread, when positive, migrates one job per reconcile tick
	// from the most to the least loaded machine whenever their
	// assigned-job counts differ by more than this. Zero disables
	// rebalancing.
	RebalanceSpread int
	// Policy is the scheduler class id jobs spawn into (default 0, the CFS
	// class the default setup registers).
	Policy int
	// Parallel drives the fleet on one worker goroutine per machine;
	// serial and parallel drives are byte-identical.
	Parallel bool
	// Setup, when set, replaces the default per-shard CFS registration: it
	// runs once per machine at construction and must register a class
	// under Policy on every shard (recorders and extra instrumentation
	// attach here too).
	Setup func(machine int, sk *kernel.ShardedKernel)
	// SetupModules is Setup's upgradable variant: it must register a class
	// under Policy on every shard and return the per-shard enokic adapters
	// (index = shard, nil for shards without an upgradable module). Only
	// machines built this way are rollout targets — the fleet rollout
	// machinery drives their adapters' UpgradeTo/Rollback as cluster
	// actions. Takes precedence over Setup.
	SetupModules func(machine int, sk *kernel.ShardedKernel) []*enokic.Adapter
	// Admission, when non-empty, builds the cluster's overload controller:
	// jobs offered through Offer pass per-class admission with load
	// shedding and bounded retry before they reach the placer. Submit
	// bypasses admission.
	Admission []overload.ClassConfig
}

func (c Config) withDefaults() Config {
	if c.Machine.NumCPUs == 0 {
		c.Machine = kernel.Machine8()
	}
	if c.NetLatency <= 0 {
		c.NetLatency = 50 * time.Microsecond
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = 200 * time.Microsecond
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = 500 * time.Microsecond
	}
	if c.Placer == nil {
		c.Placer = LeastLoaded{}
	}
	return c
}

// Cluster is a simulated fleet plus its control plane.
type Cluster struct {
	cfg      Config
	fl       *sim.Executor
	ctrl     *sim.Engine
	ctrlNode int
	ctrlSrc  int
	machines []*Machine
	sched    *jobScheduler
	rollout  *Rollout
	adm      *overload.Controller
	jobClass map[int]int // job id → admission class, for jobs that entered via Offer
	closed   bool
}

// New builds a cluster: fleet node 0 is the control-plane engine, nodes
// 1..Machines are sharded kernel stacks.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Machines < 1 {
		panic("cluster: Config.Machines must be at least 1")
	}
	c := &Cluster{cfg: cfg, fl: sim.NewExecutor(ktime.Duration(cfg.NetLatency)), ctrl: sim.New()}
	if len(cfg.Admission) > 0 {
		c.adm = overload.New(overload.Config{Classes: cfg.Admission})
		c.jobClass = make(map[int]int)
	}
	c.ctrlNode = c.fl.AddNode(c.ctrl)
	c.ctrlSrc = c.fl.AddSource(c.ctrlNode)
	// Reports queue on the control-plane engine and run at their instant,
	// one event for every report due then.
	c.fl.SetHandler(c.ctrlNode, sim.NewInbox(c.ctrl, c.handleReports).Push)
	for i := 0; i < cfg.Machines; i++ {
		c.machines = append(c.machines, newMachine(c, i))
	}
	c.sched = newJobScheduler(c)
	c.fl.SetParallel(cfg.Parallel)
	return c
}

// Submit registers a job and returns its id. Call it between runs (or from
// a control-plane event); the job is placed on the next reconcile tick.
func (c *Cluster) Submit(spec JobSpec) int {
	if c.closed {
		panic("cluster: Submit on a closed cluster")
	}
	spec = spec.withDefaults()
	id := len(c.sched.jobs)
	if spec.Cycles > math.MaxInt32 {
		panic("cluster: JobSpec.Cycles must fit the 32-bit words of fleet messages")
	}
	c.sched.jobs = append(c.sched.jobs, &Job{
		ID: id, Spec: spec, State: JobPending,
		Machine: -1, Desired: -1,
		CyclesLeft:  spec.Cycles,
		SubmittedAt: c.ctrl.Now(),
	})
	c.sched.queue = append(c.sched.queue, id)
	c.sched.live++
	c.sched.arm()
	return id
}

// FailMachine schedules a fail-stop crash of machine mi at absolute
// virtual time at (which must be at least one network latency in the
// future): the machine freezes at the epoch boundary of that instant, and
// the control plane detects the death DetectDelay later. Call it between
// runs, before advancing past at.
func (c *Cluster) FailMachine(mi int, at time.Duration) {
	if c.closed {
		panic("cluster: FailMachine on a closed cluster")
	}
	if mi < 0 || mi >= len(c.machines) {
		panic(fmt.Sprintf("cluster: FailMachine(%d) out of range", mi))
	}
	t := ktime.Time(0).Add(ktime.Duration(at))
	if min := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency)); t < min {
		panic(fmt.Sprintf("cluster: FailMachine(%d, %v) is under one network latency past now (earliest %v)",
			mi, at, time.Duration(min)))
	}
	// Kill must observe the fleet floor exactly at the failure instant — the
	// victim advances to t and no further — so it rides a plain Send, whose
	// commitments run at the floor (unlike the handoff fast path).
	c.fl.Send(c.ctrlSrc, c.machines[mi].node, t, sim.Msg{Kind: sim.KindKill})
	c.ctrl.PostAt(t.Add(ktime.Duration(c.cfg.DetectDelay)), func() { c.sched.machineDead(mi) })
}

// handleReports runs on the control-plane engine: it dispatches every
// machine report due at the current instant, in merge order, to the job
// state machine or the rollout it acknowledges.
func (c *Cluster) handleReports(group []sim.Msg) {
	s := c.sched
	for _, msg := range group {
		switch msg.Kind {
		case msgStarted:
			s.onStarted(int(msg.A), int(msg.B))
		case msgStopped:
			s.onStopped(int(msg.A), int(msg.B), int(msg.C))
		case msgDone:
			s.onDone(int(msg.A), int(msg.B))
		case msgUpgrade, msgProbe, msgRollback:
			c.rollout.ack(msg)
		default:
			panic(fmt.Sprintf("cluster: control plane got report kind %d", msg.Kind))
		}
	}
}

// Run advances the whole cluster by d of virtual time.
func (c *Cluster) Run(d time.Duration) {
	if c.closed {
		panic("cluster: Run on a closed cluster")
	}
	c.fl.RunUntil(c.fl.Now().Add(ktime.Duration(d)))
}

// RunUntilIdle advances until no machine has pending work, no message is in
// flight, and the control plane has gone quiescent — i.e. every completable
// job is Done. Jobs stranded Pending with no machine alive do not hold the
// cluster open.
func (c *Cluster) RunUntilIdle() {
	if c.closed {
		panic("cluster: RunUntilIdle on a closed cluster")
	}
	c.fl.RunUntilIdle()
}

// Now returns the fleet's virtual-time floor.
func (c *Cluster) Now() ktime.Time { return c.fl.Now() }

// NumMachines returns the fleet size (control plane excluded).
func (c *Cluster) NumMachines() int { return len(c.machines) }

// Machine returns machine i's agent.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Fleet returns the underlying executor, for counters and advanced drives.
func (c *Cluster) Fleet() *sim.Executor { return c.fl }

// Job returns a copy of job id's control-plane record.
func (c *Cluster) Job(id int) Job { return *c.sched.jobs[id] }

// NumJobs returns how many jobs have been submitted.
func (c *Cluster) NumJobs() int { return len(c.sched.jobs) }

// Views returns a copy of the control plane's machine views.
func (c *Cluster) Views() []MachineView {
	out := make([]MachineView, len(c.sched.view))
	copy(out, c.sched.view)
	return out
}

// Stats is a cluster-wide roll-up. Quantiles come from always-on LogHists
// (~12% worst-case relative error).
type Stats struct {
	Submitted  int
	Done       int
	Lost       int // placements lost to machine failure (restarts)
	Migrations int // rebalance migrations completed
	StartsSent int
	StopsSent  int

	PlaceP50, PlaceP99 time.Duration // submit → first running ack
	E2EP50, E2EP99     time.Duration // submit → done

	MachinesAlive int
	TasksSpawned  uint64
	CtxSwitches   uint64
	EventsFired   uint64

	Epochs        uint64 // fleet merge rounds
	MsgsSent      uint64
	MsgsDelivered uint64
	MsgsDropped   uint64
}

// Stats assembles the roll-up. Read it between runs.
func (c *Cluster) Stats() Stats {
	s := c.sched
	st := Stats{
		Submitted: len(s.jobs), Done: s.done, Lost: s.lost,
		Migrations: s.migrations, StartsSent: s.starts, StopsSent: s.stops,
		PlaceP50: time.Duration(s.placeHist.Quantile(0.50)),
		PlaceP99: time.Duration(s.placeHist.Quantile(0.99)),
		E2EP50:   time.Duration(s.e2eHist.Quantile(0.50)),
		E2EP99:   time.Duration(s.e2eHist.Quantile(0.99)),
		Epochs:   c.fl.Epochs(),
		MsgsSent: c.fl.MsgsSent(), MsgsDelivered: c.fl.MsgsDelivered(),
		MsgsDropped: c.fl.MsgsDropped(),
	}
	for _, m := range c.machines {
		if c.fl.Alive(m.node) {
			st.MachinesAlive++
		}
		st.TasksSpawned += m.spawned
		st.CtxSwitches += m.sk.CtxSwitches()
		st.EventsFired += m.sk.EventsFired()
	}
	st.EventsFired += c.ctrl.Fired()
	return st
}

// Close shuts the cluster down: the fleet's workers and every machine's
// executor stop. Closing twice returns an error wrapping ErrClosed.
func (c *Cluster) Close() error {
	if c.closed {
		return fmt.Errorf("cluster: double Close: %w", ErrClosed)
	}
	c.closed = true
	c.fl.Close()
	for _, m := range c.machines {
		m.sk.Close()
	}
	return nil
}
