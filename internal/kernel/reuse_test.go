package kernel

import (
	"testing"
	"time"

	"enoki/internal/sim"
)

// The CFS entity and its run-queue node live inside the Task, so a task
// that leaves CFS and comes back reuses the same memory. These tests pin
// that reuse: the entity a returning task carries must be exactly the one a
// fresh fork would get.

// forkEntity is the entity CFS gives a task of the given nice forked onto
// cpu's queue right now: TaskNew's reset followed by Enqueue's START_DEBIT
// placement. prevSum is left to checkForkState (Enqueue stamps it).
func forkEntity(c *CFS, cpu int, t *Task, nice int) cfsEntity {
	rq := c.rqs[cpu]
	e := cfsEntity{t: t, weight: WeightOf(nice), everRan: true}
	e.vruntime = rq.minV + c.vslice(rq, &e)
	return e
}

// checkForkState compares t's live, queued entity with want field by field.
func checkForkState(t *testing.T, c *CFS, task *Task, want cfsEntity) {
	t.Helper()
	got := &task.cfs
	if task.classData != got {
		t.Fatalf("classData does not point at the embedded entity")
	}
	if got.t != want.t || got.weight != want.weight || got.vruntime != want.vruntime ||
		got.prevSum != task.SumExec() || got.lastPickSum != 0 || got.everRan != want.everRan {
		t.Fatalf("entity = {w %d v %d prev %v pick %v ran %v}, fresh fork = {w %d v %d prev %v pick 0 ran %v}",
			got.weight, got.vruntime, got.prevSum, got.lastPickSum, got.everRan,
			want.weight, want.vruntime, task.SumExec(), want.everRan)
	}
	if !got.node.Inserted() || got.node.Value() != got || got.node.Key() != want.vruntime {
		t.Fatalf("entity node not queued under its vruntime")
	}
}

// Class ids of the reuse rig, in priority order above CFS.
const (
	reuseHog   = 5 // RT class holding a 20ms FIFO hog on cpu0
	reuseOther = 6 // RT class standing in for any non-CFS class or module
)

// reuseRig builds a Machine8 kernel with two RT classes above CFS, a CFS
// anchor spinning on cpu0 (so its queue has a moving min vruntime), and the
// task under test: a CFS spinner on cpu0 that has run long enough to build
// up vruntime and a pick stamp. It then starts the hog, so for the next
// 20ms nothing below it runs on cpu0 and a task moved into CFS stays
// queued where the test can inspect it.
func reuseRig(t *testing.T) (*Kernel, *CFS, *Task) {
	t.Helper()
	k := New(sim.New(), Machine8(), DefaultCosts())
	k.RegisterClass(reuseHog, NewRT(k, 0))
	k.RegisterClass(reuseOther, NewRT(k, 0))
	c := NewCFS(k)
	k.RegisterClass(testPolicyCFS, c)
	k.Spawn("anchor", testPolicyCFS, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	x := k.Spawn("x", testPolicyCFS, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	k.RunFor(30 * time.Millisecond)
	if !x.cfs.everRan || x.cfs.vruntime == 0 || x.cfs.lastPickSum == 0 {
		t.Fatalf("rig task built no CFS history: %+v", x.cfs)
	}
	k.Spawn("hog", reuseHog, spinFor(20*time.Millisecond, time.Millisecond), WithAffinity(SingleCPU(0)))
	k.RunFor(time.Millisecond)
	if x.state != StateRunnable {
		t.Fatalf("x state %v under the hog, want runnable", x.state)
	}
	return k, c, x
}

// TestSetSchedulerRoundTripResetsCFSEntity moves a CFS task with history to
// another class, changes its nice there (CFS never hears of it), and moves
// it back: its entity must match a fresh fork's — weight from the new
// nice, START_DEBIT placement, no pick stamp — not its old state.
func TestSetSchedulerRoundTripResetsCFSEntity(t *testing.T) {
	k, c, x := reuseRig(t)
	k.SetScheduler(x, reuseOther)
	if x.classData == &x.cfs {
		t.Fatal("classData still points at the CFS entity after leaving CFS")
	}
	k.SetNice(x, 5)
	k.RunFor(5 * time.Millisecond)
	want := forkEntity(c, 0, x, 5)
	k.SetScheduler(x, testPolicyCFS)
	checkForkState(t, c, x, want)

	// A fresh fork onto the same queue gets the same treatment.
	want = forkEntity(c, 0, nil, 5)
	fresh := k.Spawn("fresh", testPolicyCFS, spinFor(time.Hour, time.Millisecond),
		WithAffinity(SingleCPU(0)), WithNice(5))
	want.t = fresh
	checkForkState(t, c, fresh, want)
	before := x.SumExec()
	k.RunFor(100 * time.Millisecond)
	if x.SumExec() == before {
		t.Fatal("returned task never ran after the hog finished")
	}
}

// TestRehomeAfterModuleKillResetsCFSEntity takes the module-kill path: the
// class owning the task is emptied onto CFS (RehomeTasks) and deregistered
// with CFS as its fallback, as a killed module is. The rehomed task must
// carry a fresh fork's entity too.
func TestRehomeAfterModuleKillResetsCFSEntity(t *testing.T) {
	k, c, x := reuseRig(t)
	k.SetScheduler(x, reuseOther)
	k.RunFor(5 * time.Millisecond)
	want := forkEntity(c, 0, x, 0)
	if n := k.RehomeTasks(k.ClassByID(reuseOther), testPolicyCFS); n != 1 {
		t.Fatalf("rehomed %d tasks, want 1", n)
	}
	k.DeregisterClass(reuseOther, testPolicyCFS)
	checkForkState(t, c, x, want)
	before := x.SumExec()
	k.RunFor(100 * time.Millisecond)
	if x.SumExec() == before {
		t.Fatal("rehomed task never ran after the hog finished")
	}
}

// TestDeadTaskDropsCFSEntity: exit detaches the embedded entity from the
// task's class data and leaves its node unlinked.
func TestDeadTaskDropsCFSEntity(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	x := k.Spawn("x", testPolicyCFS, spinFor(time.Millisecond, 100*time.Microsecond))
	k.RunFor(10 * time.Millisecond)
	if x.state != StateDead || x.classData != nil || x.cfs.node.Inserted() {
		t.Fatalf("dead task: state %v classData %v node linked %v", x.state, x.classData, x.cfs.node.Inserted())
	}
}

// selfMover is a behavior whose first Next moves its own task to another
// CPU from inside the call, then computes for a few segments.
type selfMover struct {
	to   int
	left int
}

func (m *selfMover) Next(k *Kernel, t *Task) Action {
	if m.to >= 0 {
		k.SetAffinity(t, SingleCPU(m.to))
		m.to = -1
	}
	if m.left == 0 {
		return Action{Op: OpExit}
	}
	m.left--
	return Action{Run: 200 * time.Microsecond, Op: OpContinue}
}

// TestSegmentTimerSurvivesSelfMigration: the segment timer is per CPU, so a
// task that moves itself off its CPU from inside Next must not arm the old
// CPU's timer; the task that CPU picks instead keeps its own completion,
// and the mover runs every segment on its new CPU.
func TestSegmentTimerSurvivesSelfMigration(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	var exits []string
	obs := func(name string) SpawnOption {
		return WithExitObserver(func() { exits = append(exits, name) })
	}
	// The mover is picked first; moving away, it hands cpu0 to stay from
	// inside its own Next.
	mover := k.Spawn("mover", testPolicyCFS, &selfMover{to: 3, left: 5},
		WithAffinity(SingleCPU(0)), obs("mover"))
	stay := k.Spawn("stay", testPolicyCFS, spinFor(2*time.Millisecond, 100*time.Microsecond),
		WithAffinity(SingleCPU(0)), obs("stay"))
	k.RunFor(50 * time.Millisecond)
	if len(exits) != 2 {
		t.Fatalf("exits %v, want both tasks", exits)
	}
	if got := stay.SumExec(); got != 2*time.Millisecond {
		t.Fatalf("stay ran %v, want 2ms", got)
	}
	// The mover's SumExec is not checked: SetAffinity from inside Next
	// accounts the stretch before its first segment has set execStart.
	if mover.CPU() != 3 {
		t.Fatalf("mover finished on cpu%d, want cpu3", mover.CPU())
	}
}

// TestSleepersWakeOnTimeInPostOrder steps a sleep-heavy workload one
// event at a time and checks every OpSleep self-wake: it lands exactly
// SleepFor after the task parked, and wakes that fall on one instant run in
// the order the tasks parked, which is the order their wake posts fire in.
func TestSleepersWakeOnTimeInPostOrder(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	const n = 12
	tasks := make([]*Task, n)
	sleepOf := make([]time.Duration, n)
	for i := range tasks {
		var acts []Action
		for j := 0; j < 6; j++ {
			// Equal run lengths and sleeps across tasks make wake times
			// collide; the mix of lengths makes the heap reorder.
			run := time.Duration(50+50*((i+j)%3)) * time.Microsecond
			sleep := time.Duration(100*(1+(i*j)%4)) * time.Microsecond
			acts = append(acts, Action{Run: run, Op: OpSleep, SleepFor: sleep})
		}
		sb := &scriptBehavior{actions: acts}
		i := i
		tasks[i] = k.Spawn("sleeper", testPolicyCFS, BehaviorFunc(func(kk *Kernel, tk *Task) Action {
			a := sb.Next(kk, tk)
			sleepOf[i] = a.SleepFor
			return a
		}))
	}
	type parked struct {
		at    time.Duration
		order int
	}
	blockedAt := make([]parked, n)
	prev := make([]State, n)
	parks, wakes, lastWakeOrder := 0, 0, -1
	var lastWakeAt time.Duration
	eng := k.Engine()
	for eng.Step() {
		now := time.Duration(eng.Now())
		for i, tk := range tasks {
			st := tk.State()
			switch {
			case st == StateBlocked && prev[i] != StateBlocked:
				blockedAt[i] = parked{at: now + sleepOf[i], order: parks}
				parks++
			case prev[i] == StateBlocked && st != StateBlocked:
				p := blockedAt[i]
				if now != p.at {
					t.Fatalf("task %d woke at %v, want %v", i, now, p.at)
				}
				if now == lastWakeAt && p.order < lastWakeOrder {
					t.Fatalf("task %d woke out of post order at %v", i, now)
				}
				lastWakeAt, lastWakeOrder = now, p.order
				wakes++
			}
			prev[i] = st
		}
	}
	if wakes != n*6 || len(k.sleepers) != 0 {
		t.Fatalf("%d wakes (want %d), %d sleepers left", wakes, n*6, len(k.sleepers))
	}
	for i, tk := range tasks {
		if tk.State() != StateDead {
			t.Fatalf("task %d not dead: %v", i, tk.State())
		}
	}
}
