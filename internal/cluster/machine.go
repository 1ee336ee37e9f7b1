package cluster

import (
	"fmt"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// Record kinds of the cluster's fleet messages (sim.Msg). Operations travel
// from the control plane to a machine's fleet handler, which forwards them
// to a shard as injected records; reports travel from a shard back to the
// control plane's inbox. A rollout op and its ack share a kind.
const (
	msgStart    sim.MsgKind = iota // op: A job, B shard, C cycles left
	msgStop                        // op: A job, B shard
	msgStarted                     // report: A job, B machine
	msgStopped                     // report: A job, B machine, C cycles left
	msgDone                        // report: A job, B machine
	msgUpgrade                     // op: no words; ack: A machine, B and C counts
	msgProbe                       // op: no words; ack: A machine, B and C counts
	msgRollback                    // op: no words; ack: A machine, B and C counts
)

// Machine is the agent side of the control loop: one simulated machine — a
// full sharded kernel under its own epoch-merge executor — executing start
// and stop operations the control plane injects, and reporting lifecycle
// transitions back over the simulated network. Operations and reports both
// ride the fleet's deterministic message order, so the agent is a state
// machine with no hidden concurrency: applyStart/applyStop run inside the
// target shard's execution context, exit observers run on the owning shard,
// and every cross-machine send goes through a per-shard fleet source.
//
// A machine's executor is always driven serially (the fleet's parallel mode
// already gives each machine its own worker goroutine; nesting another
// parallel drive inside it would oversubscribe without adding determinism).
type Machine struct {
	c  *Cluster
	id int
	sk *kernel.ShardedKernel
	// node is this machine's fleet index; src[s] is the fleet send context
	// owned by shard s, so reports from concurrently-driven machines never
	// race.
	node int
	src  []int
	// jobs is the agent's running-set, keyed by job id. Only shard contexts
	// of this machine touch it, and the machine drive is serial, so no
	// locking.
	jobs    map[int]*jobRun
	spawned uint64
	// ads are the per-shard upgradable modules (index = shard, nil where
	// Config.SetupModules registered none). Each adapter is mutated only by
	// its own shard's engine; the rollout agent ops in rollout.go fan
	// in/out through shard injections, never cross-shard reads. mods counts
	// the non-nil entries; op is the rollout op the shards run next.
	ads  []*enokic.Adapter
	mods int
	op   *agentOp
}

// jobRun is the on-machine state of one placed job, and the kernel
// Behavior and ExitObserver of its task: cyclesLeft compute segments,
// parking between them per the spec, honoring the cooperative stop flag at
// every cycle boundary, and reporting when the task dies.
type jobRun struct {
	m          *Machine
	id         int
	shard      int
	cyclesLeft int
	stop       bool // cooperative stop flag, checked at cycle boundaries
	spec       JobSpec
}

// Next implements kernel.Behavior.
func (jr *jobRun) Next(*kernel.Kernel, *kernel.Task) kernel.Action {
	if jr.stop || jr.cyclesLeft <= 0 {
		return kernel.Action{Op: kernel.OpExit}
	}
	jr.cyclesLeft--
	if jr.spec.Sleep > 0 {
		return kernel.Action{Run: jr.spec.Run, Op: kernel.OpSleep, SleepFor: jr.spec.Sleep}
	}
	return kernel.Action{Run: jr.spec.Run, Op: kernel.OpYield}
}

// TaskExited implements kernel.ExitObserver.
func (jr *jobRun) TaskExited(*kernel.Kernel, *kernel.Task) { jr.m.onExit(jr) }

func newMachine(c *Cluster, id int) *Machine {
	sk := kernel.NewShardedKernel(c.cfg.Machine, kernel.CostsFor(c.cfg.Machine), 0)
	m := &Machine{c: c, id: id, sk: sk, jobs: make(map[int]*jobRun)}
	m.node = c.fl.AddNode(sk)
	for s := 0; s < sk.NumShards(); s++ {
		m.src = append(m.src, c.fl.AddSource(m.node))
	}
	c.fl.SetHandler(m.node, m.onFleet)
	sk.SetInjectHandler(m.onShard)
	if c.cfg.SetupModules != nil {
		m.ads = c.cfg.SetupModules(id, sk)
		for _, ad := range m.ads {
			if ad != nil {
				m.mods++
			}
		}
	} else if c.cfg.Setup != nil {
		c.cfg.Setup(id, sk)
	} else {
		for s := 0; s < sk.NumShards(); s++ {
			k := sk.ShardKernel(s)
			k.RegisterClass(0, kernel.NewCFS(k))
		}
	}
	return m
}

// ID returns the machine's cluster-wide id.
func (m *Machine) ID() int { return m.id }

// Sharded returns the machine's kernel stack, for per-shard instrumentation
// (recorders, tracers, extra workload) between runs.
func (m *Machine) Sharded() *kernel.ShardedKernel { return m.sk }

// TasksSpawned returns how many job tasks this machine has spawned. Read it
// between runs.
func (m *Machine) TasksSpawned() uint64 { return m.spawned }

// Adapters returns the per-shard upgradable modules Config.SetupModules
// registered (nil entries for shards without one; nil slice when the
// machine was built without SetupModules). Read adapter state between runs
// only — mid-run the shards own it.
func (m *Machine) Adapters() []*enokic.Adapter { return m.ads }

// onFleet is the machine's fleet handler. It runs on the coordinator with
// every node quiescent, so it may read control-plane state: this is where
// a start op picks up its job's spec, and a rollout op its Rollout. It
// forwards each op to the target shard as an injected record.
func (m *Machine) onFleet(at ktime.Time, msg sim.Msg) {
	switch msg.Kind {
	case msgStart:
		id := int(msg.A)
		m.jobs[id] = &jobRun{m: m, id: id, shard: int(msg.B), cyclesLeft: int(msg.C),
			spec: m.c.sched.jobs[id].Spec}
		m.sk.Inject(int(msg.B), at, msg)
	case msgStop:
		m.sk.Inject(int(msg.B), at, msg)
	case msgUpgrade, msgProbe, msgRollback:
		m.fanOut(at, msg.Kind, m.c.rollout)
	default:
		panic(fmt.Sprintf("cluster: machine %d got fleet record kind %d", m.id, msg.Kind))
	}
}

// onShard is the machine's inject handler: it runs an op inside the target
// shard's context at the op's instant.
func (m *Machine) onShard(shard int, msg sim.Msg) {
	switch msg.Kind {
	case msgStart:
		m.applyStart(m.jobs[int(msg.A)])
	case msgStop:
		m.applyStop(int(msg.A))
	default:
		m.applyOp(shard, m.op)
	}
}

// report sends a lifecycle report from shard context back to the control
// plane, one network latency away.
func (m *Machine) report(shard int, msg sim.Msg) {
	c := m.c
	at := m.sk.ShardKernel(shard).Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendHandoff(m.src[shard], c.ctrlNode, at, msg)
}

// applyStart executes a start operation inside shard context: spawn the
// job's task into the configured policy class and ack the placement.
func (m *Machine) applyStart(jr *jobRun) {
	m.spawned++
	m.sk.ShardKernel(jr.shard).Spawn(jr.spec.Name, m.c.cfg.Policy, jr)
	m.report(jr.shard, sim.Msg{Kind: msgStarted, A: int32(jr.id), B: int32(m.id)})
}

// applyStop executes a stop operation: raise the cooperative flag so the
// task exits at its next cycle boundary with its progress checkpointed. A
// job that already finished (its done report is in flight) is a no-op — the
// control plane resolves the race from the reports.
func (m *Machine) applyStop(id int) {
	if jr, ok := m.jobs[id]; ok {
		jr.stop = true
	}
}

// onExit runs on the owning shard when a job task dies: report either the
// completion or the migration checkpoint.
func (m *Machine) onExit(jr *jobRun) {
	delete(m.jobs, jr.id)
	if jr.stop && jr.cyclesLeft > 0 {
		m.report(jr.shard, sim.Msg{Kind: msgStopped, A: int32(jr.id), B: int32(m.id), C: int32(jr.cyclesLeft)})
		return
	}
	m.report(jr.shard, sim.Msg{Kind: msgDone, A: int32(jr.id), B: int32(m.id)})
}
