package kernel

import (
	"testing"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// newTestSharded builds the two-node test machine with CFS on every shard.
func newTestSharded(lookahead time.Duration) *ShardedKernel {
	m := MachineNUMA("2node", 2, 1, 4)
	sk := NewShardedKernel(m, CostsFor(m), lookahead)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
	}
	return sk
}

// TestRemoteWake pins the cross-shard wake path at the kernel level: a task
// blocked on shard 1 is woken from shard 0's execution context, the wake
// lands no earlier than one lookahead after the send, and the cross-wake
// counter records the submission.
func TestRemoteWake(t *testing.T) {
	m := MachineNUMA("2node", 2, 1, 4)
	sk := NewShardedKernel(m, CostsFor(m), 0)
	defer sk.Close()
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
	}

	k1 := sk.ShardKernel(1)
	var wokeAt ktime.Time
	calls := 0
	task := k1.Spawn("sleeper", testPolicyCFS, BehaviorFunc(func(k *Kernel, _ *Task) Action {
		calls++
		if calls == 1 {
			return Action{Run: 5 * time.Microsecond, Op: OpBlock}
		}
		wokeAt = k.Now()
		return Action{Op: OpExit}
	}))

	var sentAt ktime.Time
	sk.ShardKernel(0).Engine().Post(50*time.Microsecond, func() {
		sentAt = sk.ShardKernel(0).Now()
		sk.RemoteWake(0, 1, task)
	})

	sk.RunFor(time.Millisecond)

	if calls != 2 {
		t.Fatalf("task ran %d segments, want 2 (block, then remote wake)", calls)
	}
	if task.State() != StateDead {
		t.Errorf("task state = %v, want Dead", task.State())
	}
	if got, want := sk.CrossWakes(), uint64(1); got != want {
		t.Errorf("CrossWakes = %d, want %d", got, want)
	}
	la := ktime.Duration(sk.Executor().Lookahead())
	if wokeAt < sentAt.Add(la) {
		t.Errorf("wake ran at %v, before send %v + lookahead %v", wokeAt, sentAt, la)
	}
}

// TestRemoteWakeBatched pins the batch-window bracketing: a burst arriving
// at one instant on one shard — remote wakes alone, or remote wakes mixed
// with injected records whose handler wakes — drains inside a single IPI
// batch window, coalescing the kicks the same way a local wake burst does.
func TestRemoteWakeBatched(t *testing.T) {
	for _, injected := range []int{0, 2} {
		sk := newTestSharded(0)
		k1 := sk.ShardKernel(1)
		// Four tasks pinned to one CPU of shard 1 block, leaving it idle;
		// every wake in the burst then wants a kick at that same idle target.
		var tasks []*Task
		for i := 0; i < 4; i++ {
			tasks = append(tasks, k1.Spawn("blocked", testPolicyCFS,
				BehaviorFunc(func(*Kernel, *Task) Action {
					return Action{Run: time.Microsecond, Op: OpBlock}
				}), WithAffinity(SingleCPU(0))))
		}
		sk.SetInjectHandler(func(shard int, m sim.Msg) { sk.ShardKernel(shard).Wake(tasks[m.A]) })
		sk.RunFor(20 * time.Microsecond) // everyone spawned and blocked

		// The remote wakes are sent at +10µs and land one lookahead later;
		// the injections land at that same instant.
		at := sk.Now().Add(10 * time.Microsecond).Add(sk.Executor().Lookahead())
		for i := 0; i < injected; i++ {
			sk.Inject(1, at, sim.Msg{A: int32(i)})
		}
		sk.ShardKernel(0).Engine().Post(10*time.Microsecond, func() {
			for _, tk := range tasks[injected:] {
				sk.RemoteWake(0, 1, tk)
			}
		})
		before, wakes := k1.IPIsCoalesced, k1.Wakeups
		sk.RunFor(100 * time.Microsecond)
		sk.Close()

		if got, want := sk.CrossWakes(), uint64(4-injected); got != want {
			t.Fatalf("%d injected: CrossWakes = %d, want %d", injected, got, want)
		}
		if got := k1.Wakeups - wakes; got != 4 {
			t.Fatalf("%d injected: %d wakes, want 4", injected, got)
		}
		if got, want := k1.IPIsCoalesced-before, uint64(3); got != want {
			t.Errorf("%d injected: coalesced %d IPIs in the 4-wake burst, want %d (one kick per target)",
				injected, got, want)
		}
	}
}

// TestRemoteWakeExitedTarget: a remote wake whose target exits while the
// wake is in flight is a silent no-op on delivery.
func TestRemoteWakeExitedTarget(t *testing.T) {
	// A long lookahead leaves the task ample time to exit in flight.
	sk := newTestSharded(50 * time.Microsecond)
	defer sk.Close()
	k1 := sk.ShardKernel(1)
	task := k1.Spawn("brief", testPolicyCFS, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Run: 5 * time.Microsecond, Op: OpExit}
	}))
	sk.RemoteWake(0, 1, task) // between runs, while the task is alive
	sk.RunFor(40 * time.Microsecond)
	if task.State() != StateDead {
		t.Fatalf("task state = %v before delivery, want Dead", task.State())
	}
	wakes := k1.Wakeups
	sk.RunFor(time.Millisecond)
	if got := sk.Executor().MsgsDelivered(); got != 1 {
		t.Fatalf("MsgsDelivered = %d, want 1", got)
	}
	if k1.Wakeups != wakes || k1.NumTasks() != 0 {
		t.Fatalf("wake of an exited task had effect: %d wakes (was %d), %d tasks",
			k1.Wakeups, wakes, k1.NumTasks())
	}
}

// TestRemoteWakeZeroAlloc is the allocation ratchet for the cross-shard
// wake: in steady state a RemoteWake and its delivery — the record send,
// the epoch merge, the target shard's inbox drain and the wake itself —
// allocate nothing.
func TestRemoteWakeZeroAlloc(t *testing.T) {
	sk := newTestSharded(0)
	defer sk.Close()
	k1 := sk.ShardKernel(1)
	task := k1.Spawn("sleeper", testPolicyCFS, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Run: 5 * time.Microsecond, Op: OpBlock}
	}))
	eng0 := sk.ShardKernel(0).Engine()
	var wake func()
	wake = func() {
		sk.RemoteWake(0, 1, task)
		eng0.Post(50*time.Microsecond, wake)
	}
	eng0.Post(50*time.Microsecond, wake)
	// Warm until the 50µs period has visited every near-wheel slot, so
	// every slot's backing slice exists.
	sk.RunFor(200 * time.Millisecond)
	wakes := k1.Wakeups
	allocs := testing.AllocsPerRun(100, func() { sk.RunFor(50 * time.Microsecond) })
	if allocs != 0 {
		t.Errorf("remote wake steady state allocates %.1f/op, want 0", allocs)
	}
	if got := k1.Wakeups - wakes; got < 100 {
		t.Fatalf("only %d remote wakes delivered in 101 periods", got)
	}
}
