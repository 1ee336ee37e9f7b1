package kernel_test

import (
	"testing"

	"enoki/internal/bench"
)

// TestScheduleOpTracedZeroAlloc is the allocation ratchet for the
// observability layer at the kernel level: a full block→wake→schedule round
// trip with the tracer ring and per-class histograms live must stay at 0
// allocs/op, same as the untraced path. Run as a test (not only a
// benchmark) so `go test ./...` catches a regression without anyone
// remembering to read benchmark output.
func TestScheduleOpTracedZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpTraced)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("traced ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpChaosIdleZeroAlloc is the allocation ratchet for the chaos
// engine's kernel fault hooks: with the injector installed but every fault
// window disarmed — how a chaos run spends almost all of its virtual time —
// the window checks on the kick and resched-timer paths must add nothing to
// the schedule round trip.
func TestScheduleOpChaosIdleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpChaosIdle)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("ScheduleOp with disarmed fault hooks: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpShardedZeroAlloc is the allocation ratchet for the sharded
// executor: the ScheduleOp ping-pong on every shard of a two-node machine,
// driven through the epoch-merge protocol, must stay at 0 allocs/op once the
// free lists and timer-wheel slots are warm. This pins the whole sharded
// stack — epoch loop, message outboxes, per-shard wheels — not just one
// kernel's hot path.
func TestScheduleOpShardedZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpSharded)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("sharded ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpVerifiedFIFOZeroAlloc is the allocation ratchet for the
// verified-bytecode fast lane: the ScheduleOp ping-pong with both tasks
// scheduled by the interpreted FIFO program — enqueue hook, pick-path
// interpretation, queue pops — must stay at 0 allocs/op. This is the tier's
// core promise: module-free crossing with kernel-native allocation behavior.
func TestScheduleOpVerifiedFIFOZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpVerifiedFIFO)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("verified-tier ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestWakeBurstZeroAlloc is the allocation ratchet for the batched
// cross-CPU message path: a 16-wake burst on the two-socket Machine80 —
// per-target IPI coalescing, cross-socket delivery, idle exits — must
// allocate nothing in steady state.
func TestWakeBurstZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.WakeBurst)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("batched WakeBurst: %d allocs/op, want 0", allocs)
	}
}

// TestSpawnExitAllocRatchet is the allocation ratchet for the task
// lifecycle: spawn into CFS, run one segment, exit. The Task is the only
// allocation — its CFS entity and run-queue node are embedded in it, and
// the segment-completion timer is the CPU's.
func TestSpawnExitAllocRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.SpawnExit)
	if allocs := r.AllocsPerOp(); allocs > 1 {
		t.Errorf("SpawnExit: %d allocs/op, want at most 1 (the Task)", allocs)
	}
}
