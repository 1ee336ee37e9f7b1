package conformance

import (
	"bytes"
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
	"enoki/internal/sim"
	"enoki/internal/vpol"
)

// ShardedRig is one conformance machine partitioned per NUMA node: every
// shard carries its own instance of the case's class above its own CFS, all
// driven by one epoch-merge executor.
type ShardedRig struct {
	SK *kernel.ShardedKernel
	// Shards holds one sub-rig per node; Rig.K is the node's sub-kernel, so
	// the single-kernel helpers (StartChecker, Workload) apply per shard
	// unchanged.
	Shards []*Rig
}

// NewShardedRig builds the sharded machine for c on m: one sub-kernel per
// NUMA node, the case's module (when it has one) loaded above CFS on every
// shard.
func NewShardedRig(c Case, m kernel.Machine, cfg enokic.Config) *ShardedRig {
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	r := &ShardedRig{SK: sk}
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		sub := &Rig{K: k, Policy: PolicyCFS}
		if c.Verified != nil {
			vc, err := vpol.Load(k, PolicyVerified, c.Verified, vpol.Config{Fallback: PolicyCFS})
			if err != nil {
				panic(fmt.Sprintf("conformance: verified load: %v", err))
			}
			sub.Verified = vc
		}
		if c.NewModule != nil {
			sub.Adapter = enokic.Load(k, PolicyTest, cfg, func(env core.Env) core.Scheduler {
				return c.NewModule(env, k.NumCPUs())
			})
			sub.Policy = PolicyTest
		}
		k.RegisterClass(PolicyCFS, kernel.NewCFS(k))
		r.Shards = append(r.Shards, sub)
	}
	return r
}

// pinger is one cross-traffic task. pending banks credits that arrived
// while the task was not blocked; it is owned by the pinger's shard: the
// credit delivery and the block-time recheck both execute in that shard's
// context.
type pinger struct {
	t       *kernel.Task
	pending int
}

// credit is the delivery of one cross-shard credit: wake the pinger if it
// is blocked, bank the credit otherwise.
func (p *pinger) credit(k *kernel.Kernel) {
	if p.t.State() == kernel.StateBlocked {
		k.Wake(p.t)
	} else {
		p.pending++
	}
}

// CrossTraffic wires deterministic cross-shard wake traffic into r: pingers
// per shard that block each cycle and are driven by the neighbouring shard
// through the executor's message protocol (the cross-socket IPI path). Each
// credit is a record naming its pinger, delivered through the rig's inject
// handler. Each pinger receives exactly `cycles` cross-shard credits; a
// credit arriving while the pinger is blocked wakes it, and one arriving
// mid-cycle is banked and consumed by the block-time recheck (the
// futex-style "a wake raced the block" path), so no credit is ever wasted
// regardless of how slowly the class cycles the task. The returned function
// reports how many pingers have exited.
func (r *ShardedRig) CrossTraffic(pingersPerShard, cycles int, period time.Duration) func() int {
	sk := r.SK
	n := sk.NumShards()
	la := sk.Executor().Lookahead()
	// Exit observers fire on the owning shard's goroutine in parallel runs,
	// so completion counts are per-shard and only summed between runs.
	completed := make([]int, n)
	pingers := make([][]pinger, n)
	sk.SetInjectHandler(func(shard int, m sim.Msg) {
		pingers[shard][m.A].credit(sk.ShardKernel(shard))
	})
	for i := 0; i < n; i++ {
		i := i
		sub := r.Shards[i]
		k := sub.K
		waker := (i + 1) % n
		wakerEng := sk.ShardKernel(waker).Engine()
		pingers[i] = make([]pinger, pingersPerShard)
		for p := 0; p < pingersPerShard; p++ {
			pg := &pingers[i][p]
			cycle := 0
			recheck := func() bool {
				if pg.pending > 0 {
					pg.pending--
					return true
				}
				return false
			}
			pg.t = k.Spawn(fmt.Sprintf("ping%d.%d", i, p), sub.Policy,
				kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
					cycle++
					if cycle > cycles {
						return kernel.Action{Op: kernel.OpExit}
					}
					return kernel.Action{Run: 40 * time.Microsecond, Op: kernel.OpBlock, Recheck: recheck}
				}),
				kernel.WithExitObserver(func() { completed[i]++ }))
			// The waker chain runs on the neighbour shard, submitting one
			// credit per period through the epoch-merge protocol.
			credit := sim.Msg{A: int32(p)}
			left := cycles
			var fire func()
			fire = func() {
				sk.Executor().Send(waker, i, wakerEng.Now().Add(la), credit)
				if left--; left > 0 {
					wakerEng.Post(period, fire)
				}
			}
			wakerEng.Post(time.Duration(p+1)*10*time.Microsecond, fire)
		}
	}
	return func() int {
		total := 0
		for _, c := range completed {
			total += c
		}
		return total
	}
}

// ShardedRunResult is one RecordShardedRun outcome: the raw per-shard record
// logs (empty slices for module-less cases) and the completion counts the
// identity and conformance tests assert on.
type ShardedRunResult struct {
	Logs          [][]byte
	WorkloadDone  int
	WorkloadTasks int
	PingersDone   int
	Pingers       int
	CrossWakes    uint64
	MsgsDelivered uint64
	EventsFired   uint64
	CtxSwitches   uint64
	Violations    []Violation
}

// RecordShardedRun drives one fully seeded sharded workload for c on m:
// every shard runs a per-shard seeded Workload plus the cross-shard pinger
// traffic, with a record channel per shard (when the case has a module) and
// an invariant checker per shard. parallel selects the executor drive mode;
// serial and parallel runs of the same arguments must produce byte-identical
// Logs — that is the tentpole's core determinism claim.
func RecordShardedRun(c Case, m kernel.Machine, cfg enokic.Config, seed uint64,
	tasksPerShard int, budget time.Duration, parallel bool) ShardedRunResult {
	r := NewShardedRig(c, m, cfg)
	defer r.SK.Close()
	r.SK.SetParallel(parallel)

	n := r.SK.NumShards()
	bufs := make([]*bytes.Buffer, n)
	recs := make([]*record.Recorder, n)
	checkers := make([]*Checker, n)
	dones := make([]func() int, n)
	for i := 0; i < n; i++ {
		sub := r.Shards[i]
		if sub.Adapter != nil {
			bufs[i] = &bytes.Buffer{}
			recs[i] = record.New(sub.K, bufs[i], PolicyCFS, record.DefaultCosts())
			sub.Adapter.SetRecorder(recs[i])
		}
		w := Workload{Seed: seed + uint64(i)*0x9e37, Tasks: tasksPerShard, Churn: true}
		dones[i] = w.Spawn(sub)
		checkers[i] = StartChecker(sub, 500*time.Microsecond)
	}
	const pingers, cycles = 3, 12
	pingDone := r.CrossTraffic(pingers, cycles, 200*time.Microsecond)

	r.SK.RunFor(budget)

	res := ShardedRunResult{
		Logs:          make([][]byte, n),
		WorkloadTasks: n * tasksPerShard,
		Pingers:       n * pingers,
		PingersDone:   pingDone(),
		CrossWakes:    r.SK.CrossWakes(),
		MsgsDelivered: r.SK.Executor().MsgsDelivered(),
		EventsFired:   r.SK.EventsFired(),
		CtxSwitches:   r.SK.CtxSwitches(),
	}
	for i := 0; i < n; i++ {
		res.WorkloadDone += dones[i]()
		checkers[i].Stop()
		res.Violations = append(res.Violations, checkers[i].Violations...)
		if recs[i] != nil {
			recs[i].Close()
			res.Logs[i] = bufs[i].Bytes()
		}
	}
	return res
}
