// ShardedKernel partitions a NUMA machine into one sub-kernel per node, each
// on its own engine, one node of a sim.Executor: shard i owns node i's CPUs,
// run queues, timers, and scheduler class instances, and advances
// independently between cross-node interactions. The only cross-shard
// traffic is the remote wake — physically a cross-socket IPI, which is why
// the executor lookahead defaults to the calibrated cross-node IPI latency:
// no real interaction is faster, so the conservative epoch protocol loses
// nothing. A remote wake travels as a kernel-reserved record carrying the
// task's PID; every other record committed for a shard goes to the handler
// registered with SetInjectHandler. Each shard's records drain through a
// sim.Inbox, one IPI batch window per (shard, instant) group.
//
// The partition is also the performance story on large machines: every
// kernel-side scan that is O(machine) in the single-kernel model — the NOHZ
// idle-CPU search on each busy tick, affinity clamps, balancer sweeps — is
// O(node) here, and each shard's event queue holds a node's worth of timers
// instead of the whole machine's. The sharded run is deterministic: driving
// the shards serially or on worker goroutines yields bit-identical per-shard
// simulations (see sim.Executor), which the conformance suite pins by
// comparing per-shard record logs byte for byte.
package kernel

import (
	"fmt"
	"math"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// kindRemoteWake is the kernel's own record kind: A carries the PID of a
// task owned by the destination shard. It sits just below sim.KindKill;
// every other kind belongs to the SetInjectHandler handler.
const kindRemoteWake sim.MsgKind = math.MaxUint8 - 1

// ShardedKernel runs one Kernel per NUMA node under the epoch-merge executor.
type ShardedKernel struct {
	ex      *sim.Executor
	machine Machine
	costs   Costs
	kernels []*Kernel
	// base[i] is the first global CPU id of shard i; shard i owns global
	// CPUs [base[i], base[i]+kernels[i].NumCPUs()).
	base []int
	// crossWakes[i] counts remote wakes submitted by shard i; per-shard so
	// the parallel drive updates it race-free.
	crossWakes []uint64
	handler    func(shard int, m sim.Msg)
}

// NewShardedKernel partitions m by NUMA node: one sub-kernel per node, each
// with the node's CPUs renumbered from zero and the full machine's cost
// table (the sub-kernels must not be re-calibrated as small machines — they
// are slices of the big one). lookahead is the executor epoch length; zero
// selects the calibrated cross-node IPI latency, the true minimum latency of
// the only cross-shard interaction.
//
// Each node's CPUs must be contiguous in the global numbering (true for
// every MachineNUMA-built topology); anything else panics, because the
// global↔local id mapping would need a table instead of an offset.
func NewShardedKernel(m Machine, costs Costs, lookahead time.Duration) *ShardedKernel {
	if m.NumNodes < 1 {
		panic("kernel: NewShardedKernel on a machine without nodes")
	}
	if lookahead <= 0 {
		lookahead = costs.IPIDeliver + costs.CrossNodeExtra
	}
	sk := &ShardedKernel{
		ex:         sim.NewExecutor(lookahead),
		machine:    m,
		costs:      costs,
		kernels:    make([]*Kernel, m.NumNodes),
		base:       make([]int, m.NumNodes),
		crossWakes: make([]uint64, m.NumNodes),
	}
	for nd := 0; nd < m.NumNodes; nd++ {
		lo, hi := nodeRange(m, nd)
		sk.base[nd] = lo
		eng := sim.New()
		sk.kernels[nd] = New(eng, subMachine(m, nd, lo, hi), costs)
		// Node nd, source nd: the shard index names the node and its one
		// send context.
		sk.ex.AddNode(eng)
		sk.ex.AddSource(nd)
		sk.ex.SetHandler(nd, sim.NewInbox(eng, func(group []sim.Msg) { sk.deliver(nd, group) }).Push)
	}
	return sk
}

// deliver runs one (shard, instant) group of committed records inside one
// IPI batch window: a burst of remote wakes and injected records flushes
// one kick per target CPU, exactly like a local wake burst.
func (sk *ShardedKernel) deliver(shard int, group []sim.Msg) {
	k := sk.kernels[shard]
	k.beginBatch()
	for _, m := range group {
		if m.Kind != kindRemoteWake {
			sk.handler(shard, m)
		} else if t := k.TaskByPID(int(m.A)); t != nil {
			k.Wake(t) // a task that exited in flight is gone: no-op
		}
	}
	k.flushBatch()
}

// nodeRange returns the contiguous global CPU range [lo, hi) of node nd,
// panicking if the node's CPUs are interleaved with another node's.
func nodeRange(m Machine, nd int) (int, int) {
	lo, hi := -1, -1
	for cpu := 0; cpu < m.NumCPUs; cpu++ {
		if m.NodeOf[cpu] != nd {
			continue
		}
		if lo == -1 {
			lo = cpu
		} else if cpu != hi {
			panic(fmt.Sprintf("kernel: node %d CPUs not contiguous (%d after %d)", nd, cpu, hi-1))
		}
		hi = cpu + 1
	}
	if lo == -1 {
		panic(fmt.Sprintf("kernel: node %d has no CPUs", nd))
	}
	return lo, hi
}

// subMachine carves node nd (global CPUs [lo, hi)) out of m as a standalone
// single-node machine with locally renumbered LLC domains.
func subMachine(m Machine, nd, lo, hi int) Machine {
	n := hi - lo
	node := make([]int, n)
	var llc []int
	numLLC := 0
	if m.LLCOf != nil {
		llc = make([]int, n)
		seen := map[int]int{}
		for i := 0; i < n; i++ {
			g := m.LLCOf[lo+i]
			l, ok := seen[g]
			if !ok {
				l = len(seen)
				seen[g] = l
			}
			llc[i] = l
		}
		numLLC = len(seen)
	}
	return Machine{
		Name:    fmt.Sprintf("%s [node %d]", m.Name, nd),
		NumCPUs: n,
		NodeOf:  node, NumNodes: 1,
		LLCOf: llc, NumLLCs: numLLC,
	}
}

// NumShards returns the shard (node) count.
func (sk *ShardedKernel) NumShards() int { return len(sk.kernels) }

// ShardKernel returns shard i's sub-kernel. Classes and modules register per
// shard; tasks spawned through it live on that shard for their lifetime.
func (sk *ShardedKernel) ShardKernel(i int) *Kernel { return sk.kernels[i] }

// Executor returns the underlying epoch-merge executor: node i is shard i's
// engine, and source i is shard i's send context.
func (sk *ShardedKernel) Executor() *sim.Executor { return sk.ex }

// Machine returns the full (unsharded) machine description.
func (sk *ShardedKernel) Machine() Machine { return sk.machine }

// Costs returns the shared cost table.
func (sk *ShardedKernel) Costs() Costs { return sk.costs }

// GlobalCPU maps shard i's local CPU id to the machine-wide id.
func (sk *ShardedKernel) GlobalCPU(shard, local int) int { return sk.base[shard] + local }

// ShardOfCPU maps a machine-wide CPU id to (shard, local id).
func (sk *ShardedKernel) ShardOfCPU(cpu int) (int, int) {
	nd := sk.machine.NodeOf[cpu]
	return nd, cpu - sk.base[nd]
}

// SetParallel selects the drive mode of the executor: worker goroutines or
// serial shard-order. Both produce bit-identical simulations.
func (sk *ShardedKernel) SetParallel(on bool) { sk.ex.SetParallel(on) }

// RemoteWake wakes a task owned by shard `to` from shard `from`'s execution
// context: the cross-socket IPI of the sharded model. The wake lands one
// lookahead later — the calibrated cross-node delivery latency — and drains
// inside the target shard's IPI batch window, so a burst of remote wakes at
// one instant flushes one kick per target CPU. A task that exits before the
// wake lands is not woken. Must be called from shard `from`'s context (one
// of its event closures) or between runs.
func (sk *ShardedKernel) RemoteWake(from, to int, t *Task) {
	sk.crossWakes[from]++
	// Only the PID crosses: it is fixed at spawn, while the rest of t
	// belongs to shard `to`, which runs concurrently with the sender. The
	// task is looked up on delivery, inside shard `to`'s context.
	sk.ex.Send(from, to, sk.kernels[from].Now().Add(sk.ex.Lookahead()),
		sim.Msg{Kind: kindRemoteWake, A: int32(t.pid)})
}

// CrossWakes returns how many remote wakes have been submitted. Read it
// between runs.
func (sk *ShardedKernel) CrossWakes() uint64 {
	var n uint64
	for _, c := range sk.crossWakes {
		n += c
	}
	return n
}

// Now returns the executor's global virtual-time floor.
func (sk *ShardedKernel) Now() ktime.Time { return sk.ex.Now() }

// RunFor advances the whole sharded simulation by d.
func (sk *ShardedKernel) RunFor(d time.Duration) {
	sk.ex.RunUntil(sk.ex.Now().Add(ktime.Duration(d)))
}

// RunUntil advances the whole sharded simulation to absolute virtual time t;
// every shard clock finishes at exactly t. With Now and NextEventTime it
// makes a ShardedKernel a sim.Node: one machine of a simulated cluster.
func (sk *ShardedKernel) RunUntil(t ktime.Time) { sk.ex.RunUntil(t) }

// NextEventTime returns the earliest pending work anywhere in the machine —
// shard events or in-flight cross-shard messages. Call it between runs.
func (sk *ShardedKernel) NextEventTime() (ktime.Time, bool) { return sk.ex.NextEventTime() }

// SetInjectHandler registers the function every record committed for a
// shard is delivered to — injected ones and those sent through Executor() —
// except the kernel's own remote wakes. h runs inside the target shard's
// context at the record's instant, within the group's IPI batch window.
// Register it once, before the first Inject.
func (sk *ShardedKernel) SetInjectHandler(h func(shard int, m sim.Msg)) { sk.handler = h }

// Inject commits record m for delivery on shard `to` of this machine at
// absolute virtual time at, from a fleet-level coordinator between machine
// epochs (see sim.Executor.Inject). This is how cluster-level commands — job
// starts, stops, control messages — enter a machine deterministically.
func (sk *ShardedKernel) Inject(to int, at ktime.Time, m sim.Msg) {
	if sk.handler == nil {
		panic("kernel: Inject before SetInjectHandler")
	}
	sk.ex.Inject(to, at, m)
}

// RunUntilIdle runs until every shard's event queue drains and no message is
// in flight.
func (sk *ShardedKernel) RunUntilIdle() { sk.ex.RunUntilIdle() }

// Close stops the executor's worker goroutines (parallel drive only).
func (sk *ShardedKernel) Close() { sk.ex.Close() }

// NumTasks sums the live-task counts of every shard.
func (sk *ShardedKernel) NumTasks() int {
	n := 0
	for _, k := range sk.kernels {
		n += k.NumTasks()
	}
	return n
}

// CtxSwitches sums context switches across shards.
func (sk *ShardedKernel) CtxSwitches() uint64 {
	var n uint64
	for _, k := range sk.kernels {
		n += k.CtxSwitches
	}
	return n
}

// Wakeups sums task wakeups across shards (remote wakes included: they run
// on the owning shard).
func (sk *ShardedKernel) Wakeups() uint64 {
	var n uint64
	for _, k := range sk.kernels {
		n += k.Wakeups
	}
	return n
}

// IPIsSent sums flushed cross-CPU kicks across shards.
func (sk *ShardedKernel) IPIsSent() uint64 {
	var n uint64
	for _, k := range sk.kernels {
		n += k.IPIsSent
	}
	return n
}

// EventsFired sums engine events fired across shards.
func (sk *ShardedKernel) EventsFired() uint64 {
	var n uint64
	for _, k := range sk.kernels {
		n += k.eng.Fired()
	}
	return n
}
