// Package kernel implements the simulated Linux scheduling core the Enoki
// reproduction runs on: per-CPU run states, scheduler classes in priority
// order, ticks, reschedule timers, wake/block/yield/exit paths, migrations,
// and calibrated cost accounting. It is the substrate the paper calls "the
// core scheduling code"; internal/enokic plugs into it exactly where Enoki-C
// plugs into kernel/sched/core.c.
//
// The whole kernel runs inside a deterministic discrete-event simulation
// (internal/sim): there is no host concurrency, so runs are reproducible
// bit-for-bit for a given seed and workload.
package kernel

import (
	"fmt"
	"sort"
	"time"

	"enoki/internal/core"
	"enoki/internal/ktime"
	"enoki/internal/metrics"
	"enoki/internal/sim"
	"enoki/internal/trace"
)

// CPU is the per-CPU scheduling state (struct rq analogue).
type CPU struct {
	id          int
	curr        *Task
	needResched bool
	kickPending bool
	idleSince   ktime.Time
	wakingUntil ktime.Time
	wasIdle     bool

	// tickEvent and reschedTimer are persistent events re-armed in place
	// (sim.Reschedule): one Event object per CPU for the life of the kernel
	// instead of a closure + Event allocation per arm.
	tickEvent    *sim.Event
	reschedTimer *sim.Event
	tickRunning  bool

	// kickFn and kick0Fn are the pre-built closures behind kick(): delayed
	// and coalesced zero-delay kicks post them fire-and-forget, keeping the
	// kick path allocation-free.
	kickFn  func()
	kick0Fn func()

	busy        time.Duration
	pendingCost time.Duration
	switches    uint64

	// inPick marks that this CPU is inside its own schedule pass; a slice
	// timer armed for it during the pass (a class arming its quantum from
	// PickNext) is deferred into pickTimer and armed relative to when the
	// picked task actually starts running, so schedule-pass overhead never
	// eats the quantum. pickTimer -1 means no deferred arm.
	inPick    bool
	pickTimer time.Duration
}

// ID returns the CPU index.
func (c *CPU) ID() int { return c.id }

// Kernel is the simulated scheduling core.
type Kernel struct {
	eng     *sim.Engine
	machine Machine
	topo    *core.Topology
	costs   Costs
	cpus    []*CPU
	classes []classSlot
	byID    map[int]Class
	idOf    map[Class]int
	tasks   map[int]*Task
	nextPID int

	rand *ktime.Rand

	// tracer and met are the optional observability taps (observe.go); nil
	// means off, and every hook guards on that.
	tracer *trace.Tracer
	met    *metrics.Set

	// finj is the optional kernel-plane fault hook (faults.go): nil in
	// normal operation, so the kick and timer paths pay one pointer test.
	finj core.KernelFaultInjector

	// Batched cross-CPU signal path: while a batch window is open (multi-
	// task wake bursts), kicks destined for other CPUs are coalesced per
	// target — pending flag, minimum delay, arrival order — and drained in
	// one flush at the event boundary, so an N-task futex wake posts one
	// IPI per distinct target instead of one per wake. All slices are
	// preallocated; the path allocates nothing.
	ipiEnabled bool
	ipiOpen    bool
	// ipiWindow mirrors the burst window even when batching is off, so
	// unbatched wake kicks are still counted as sent IPIs.
	ipiWindow bool
	// ipiDepth counts nested window opens: the sharded kernel brackets a
	// whole cross-shard delivery batch in one window, and each Wake inside
	// it opens its own. Only the outermost close flushes, so a burst of
	// remote wakes coalesces exactly like a local futex burst.
	ipiDepth int
	ipiPend  []bool
	ipiDelay []time.Duration
	ipiOrder []int

	// CtxSwitches counts context switches machine-wide.
	CtxSwitches uint64
	// Wakeups counts successful task wakeups.
	Wakeups uint64
	// XLLCMoves counts task placements (wake re-targets and migrations)
	// that crossed an LLC domain; XNodeMoves counts the subset that also
	// crossed a socket — the cost the NUMA experiments measure.
	XLLCMoves  uint64
	XNodeMoves uint64
	// IPIsSent counts flushed cross-CPU kicks; IPIsCoalesced counts kicks
	// absorbed into an already-pending one by the batcher.
	IPIsSent      uint64
	IPIsCoalesced uint64
}

// New creates a kernel for the given machine and cost table on engine eng.
func New(eng *sim.Engine, m Machine, costs Costs) *Kernel {
	k := &Kernel{
		eng:        eng,
		machine:    m,
		topo:       m.Topo(),
		costs:      costs,
		byID:       make(map[int]Class),
		idOf:       make(map[Class]int),
		tasks:      make(map[int]*Task),
		nextPID:    1,
		rand:       ktime.NewRand(0x1d1e),
		ipiEnabled: true,
		ipiPend:    make([]bool, m.NumCPUs),
		ipiDelay:   make([]time.Duration, m.NumCPUs),
		ipiOrder:   make([]int, 0, m.NumCPUs),
	}
	for i := 0; i < m.NumCPUs; i++ {
		c := &CPU{id: i}
		c.tickEvent = eng.NewEvent(func() { k.tickFire(c) })
		c.reschedTimer = eng.NewEvent(func() { k.Resched(c.id) })
		c.kickFn = func() { k.schedule(c.id) }
		c.kick0Fn = func() {
			c.kickPending = false
			k.schedule(c.id)
		}
		k.cpus = append(k.cpus, c)
	}
	return k
}

// Engine returns the underlying event engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current virtual time.
func (k *Kernel) Now() ktime.Time { return k.eng.Now() }

// NumCPUs returns the machine's CPU count.
func (k *Kernel) NumCPUs() int { return k.machine.NumCPUs }

// Topology returns the machine description.
func (k *Kernel) Topology() Machine { return k.machine }

// Topo returns the machine's scheduling-domain structure, built once at
// kernel construction and shared with every class and module environment.
func (k *Kernel) Topo() *core.Topology { return k.topo }

// SetIPIBatching enables or disables the batched cross-CPU signal path
// (enabled by default). The unbatched mode posts one kick event per wake and
// exists for the batched-vs-unbatched equivalence tests and ablations.
func (k *Kernel) SetIPIBatching(on bool) { k.ipiEnabled = on }

// Costs returns the calibrated cost table.
func (k *Kernel) Costs() Costs { return k.costs }

// RegisterClass registers a scheduler class under policy id. Registration
// order is priority order: earlier classes preempt later ones. Registering a
// duplicate id panics.
func (k *Kernel) RegisterClass(id int, c Class) {
	if _, dup := k.byID[id]; dup {
		panic(fmt.Sprintf("kernel: duplicate class id %d", id))
	}
	k.byID[id] = c
	k.idOf[c] = id
	k.classes = append(k.classes, classSlot{id: id, class: c})
	if k.met != nil {
		k.met.RegisterTiered(id, c.Name(), CrossingTierOf(c))
	}
}

// ClassByID returns the class registered under id, or nil.
func (k *Kernel) ClassByID(id int) Class { return k.byID[id] }

// ClassDepth sums the runnable (queued, not running) backlog of the class
// registered under id across every CPU — the queue-depth signal the
// overload plane's brownout sampler consumes. Unknown ids report zero.
func (k *Kernel) ClassDepth(id int) int {
	c := k.byID[id]
	if c == nil {
		return 0
	}
	n := 0
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		n += c.NRunnable(cpu)
	}
	return n
}

// DeregisterClass removes the class registered under id from the scheduling
// pick order and re-points the id at the class registered under fallbackID.
// Later Spawn or SetScheduler calls naming the dead policy silently land in
// the fallback class — the userspace-visible behaviour of a scheduler module
// being killed out from under its processes. The dead class must hold no
// tasks (rehome them first); panics on unknown ids or id == fallbackID.
func (k *Kernel) DeregisterClass(id, fallbackID int) {
	dead, ok := k.byID[id]
	if !ok {
		panic(fmt.Sprintf("kernel: DeregisterClass of unregistered class %d", id))
	}
	fb, ok := k.byID[fallbackID]
	if !ok {
		panic(fmt.Sprintf("kernel: DeregisterClass fallback %d not registered", fallbackID))
	}
	if fb == dead {
		panic(fmt.Sprintf("kernel: DeregisterClass %d onto itself", id))
	}
	for _, t := range k.tasks {
		if t.class == dead {
			panic(fmt.Sprintf("kernel: DeregisterClass %d still owns task %s", id, t))
		}
	}
	for i, s := range k.classes {
		if s.id == id {
			k.classes = append(k.classes[:i], k.classes[i+1:]...)
			break
		}
	}
	k.byID[id] = fb
}

// RehomeTasks moves every live task owned by class from into the class
// registered under toID (SetScheduler per task, in pid order so the
// migration sequence is deterministic). It returns how many tasks moved.
// This is the mass-migration half of killing a faulty module: the caller
// rehomes, then deregisters the empty class.
func (k *Kernel) RehomeTasks(from Class, toID int) int {
	pids := make([]int, 0, len(k.tasks))
	for pid, t := range k.tasks {
		if t.class == from {
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)
	for _, pid := range pids {
		k.SetScheduler(k.tasks[pid], toID)
	}
	return len(pids)
}

func (k *Kernel) classPrio(c Class) int {
	for i, s := range k.classes {
		if s.class == c {
			return i
		}
	}
	return len(k.classes)
}

// CurrentOn returns the task running on cpu, or nil when idle.
func (k *Kernel) CurrentOn(cpu int) *Task { return k.cpus[cpu].curr }

// CPUBusy returns the accumulated busy time of cpu (task execution plus
// kernel overheads charged to it).
func (k *Kernel) CPUBusy(cpu int) time.Duration { return k.cpus[cpu].busy }

// CPUSwitches returns the context-switch count of cpu.
func (k *Kernel) CPUSwitches(cpu int) uint64 { return k.cpus[cpu].switches }

// TaskByPID looks up a live task.
func (k *Kernel) TaskByPID(pid int) *Task { return k.tasks[pid] }

// NumTasks returns the number of live tasks.
func (k *Kernel) NumTasks() int { return len(k.tasks) }

// SpawnOption customises Spawn.
type SpawnOption func(*Task)

// WithAffinity restricts the task to the given CPUs.
func WithAffinity(m CPUMask) SpawnOption { return func(t *Task) { t.allowed = m } }

// WithNice sets the task's nice value.
func WithNice(n int) SpawnOption { return func(t *Task) { t.nice = n } }

// WithWakeObserver installs a wakeup-latency callback.
func WithWakeObserver(f func(time.Duration)) SpawnOption {
	return func(t *Task) { t.OnWake = f }
}

// WithExitObserver installs an exit callback.
func WithExitObserver(f func()) SpawnOption { return func(t *Task) { t.OnExit = f } }

// WithUserData attaches workload state to the task.
func WithUserData(v any) SpawnOption { return func(t *Task) { t.UserData = v } }

// Spawn creates a task in the class registered under classID and makes it
// runnable. It panics on an unknown class; that is always a harness bug.
func (k *Kernel) Spawn(name string, classID int, b Behavior, opts ...SpawnOption) *Task {
	class, ok := k.byID[classID]
	if !ok {
		panic(fmt.Sprintf("kernel: Spawn into unregistered class %d", classID))
	}
	t := &Task{
		pid:      k.nextPID,
		name:     name,
		class:    class,
		behavior: b,
		state:    StateNew,
		allowed:  AllCPUs(k.machine.NumCPUs),
	}
	k.nextPID++
	for _, o := range opts {
		o(t)
	}
	k.tasks[t.pid] = t
	class.TaskNew(t)
	target := class.SelectRQ(t, t.cpu, false)
	target = k.clampToAffinity(t, target)
	t.cpu = target
	t.state = StateRunnable
	class.Enqueue(target, t, false)
	k.afterEnqueue(t, target, false, 0)
	return t
}

func (k *Kernel) clampToAffinity(t *Task, cpu int) int {
	if cpu >= 0 && cpu < k.machine.NumCPUs && t.allowed.has(cpu) {
		return cpu
	}
	for i := 0; i < k.machine.NumCPUs; i++ {
		if t.allowed.has(i) {
			return i
		}
	}
	panic(fmt.Sprintf("kernel: task %s has empty affinity mask", t))
}

// Wake transitions a blocked task to runnable from interrupt/external
// context (timers, load generators). Waking an already-runnable task is a
// no-op, like try_to_wake_up.
func (k *Kernel) Wake(t *Task) {
	if t.state != StateBlocked {
		return
	}
	k.beginBatch()
	k.doWake(t, -1, 0)
	k.flushBatch()
}

// doWake performs the wake. wakerCPU is the CPU doing the waking, or -1 for
// external context; offset is kernel work the waker has already queued ahead
// of this wake (bulk futex wakes serialise on the waker). It returns the
// cost charged to the waker.
func (k *Kernel) doWake(t *Task, wakerCPU int, offset time.Duration) time.Duration {
	now := k.eng.Now()
	t.state = StateRunnable
	t.lastWake = now
	t.wakePending = true
	k.Wakeups++

	oh := k.costs.WakeLocal + t.class.OverheadPerCall()
	prev := t.cpu
	target := t.class.SelectRQ(t, prev, true)
	target = k.clampToAffinity(t, target)
	if wakerCPU >= 0 && target != wakerCPU {
		oh += k.costs.WakeRemoteExtra
		if !k.machine.SameNode(target, wakerCPU) {
			oh += k.costs.CrossNodeExtra
		}
	}
	if target != prev {
		t.class.Migrate(t, prev, target)
		k.noteCrossing(prev, target, t)
	}
	t.cpu = target
	oh += t.class.OverheadPerCall()
	t.class.Enqueue(target, t, true)
	k.traceEvent(trace.KindWake, target, t.pid, k.classID(t.class), int64(wakerCPU))
	k.afterEnqueue(t, target, wakerCPU >= 0 && target != wakerCPU, offset)
	return oh
}

// afterEnqueue handles preemption and idle kicks once t is queued on target.
func (k *Kernel) afterEnqueue(t *Task, target int, remote bool, offset time.Duration) {
	t.queuedAt = k.eng.Now()
	if k.met != nil {
		cm := k.met.Class(k.classID(t.class)).CPU(target)
		cm.QueueDepth.RecordValue(int64(t.class.NRunnable(target)))
	}
	tc := k.cpus[target]
	delay := offset
	if remote {
		delay += k.costs.IPIDeliver
	}
	switch {
	case tc.curr == nil:
		k.kick(target, delay)
	case k.classPrio(t.class) < k.classPrio(tc.curr.class):
		// Higher-priority class preempts unconditionally.
		k.Resched(target)
	case t.class == tc.curr.class:
		t.class.CheckPreempt(target, t)
	}
}

// Resched marks cpu for rescheduling and kicks it.
func (k *Kernel) Resched(cpu int) {
	c := k.cpus[cpu]
	if c.curr != nil {
		c.needResched = true
	}
	k.kick(cpu, 0)
}

// ArmResched arms (or re-arms) cpu's high-resolution reschedule timer d from
// now, cancelling any previously armed timer. The arming cost is charged to
// the CPU.
//
// When the arm comes from inside cpu's own schedule pass (a class arming its
// preemption quantum during PickNext), d is measured from when the picked
// task starts executing, not from mid-pass: the pass's accumulated overhead
// is added before the timer is armed. Without that offset a quantum shorter
// than the pass overhead (e.g. Shinjuku's 10 µs slice under record-mode
// per-call costs) fires before the task has run at all, and every pick
// preempts into the next — a round-robin livelock with zero progress.
func (k *Kernel) ArmResched(cpu int, d time.Duration) {
	c := k.cpus[cpu]
	c.pendingCost += k.costs.TimerArm
	if k.finj != nil {
		if d = k.finj.SkewTimer(cpu, d); d < 0 {
			d = 0
		}
	}
	if c.inPick {
		// Deferred: schedule() arms it once the pass overhead is known.
		// Re-arms supersede, matching RescheduleAfter semantics.
		c.pickTimer = d
		return
	}
	// Reschedule moves an already-armed timer in place (the old arm is
	// superseded, matching the previous cancel + re-create semantics).
	k.eng.RescheduleAfter(c.reschedTimer, d)
}

// beginBatch opens the cross-CPU signal batch window: until flushBatch,
// kicks are coalesced per target instead of posted immediately. With
// batching disabled the window still opens for accounting — kicks post
// immediately but are counted as sent IPIs, so batched and unbatched runs
// report comparable IPIsSent numbers. Windows nest: the kernel opens one
// per wake burst (segmentDone's wake loop, external Wake), and the sharded
// kernel opens an outer one around a whole cross-shard delivery batch;
// only the outermost close flushes.
func (k *Kernel) beginBatch() {
	k.ipiDepth++
	k.ipiWindow = true
	if k.ipiEnabled {
		k.ipiOpen = true
	}
}

// flushBatch closes the batch window and drains the flush queue: one kick
// per distinct target, at the minimum delay requested for it, in first-
// request order (which keeps runs deterministic).
func (k *Kernel) flushBatch() {
	if k.ipiDepth > 0 {
		k.ipiDepth--
	}
	if k.ipiDepth > 0 {
		return
	}
	k.ipiWindow = false
	if !k.ipiOpen {
		return
	}
	k.ipiOpen = false
	for _, cpu := range k.ipiOrder {
		k.ipiPend[cpu] = false
		k.IPIsSent++
		k.kick(cpu, k.ipiDelay[cpu])
	}
	k.ipiOrder = k.ipiOrder[:0]
}

// batchKick records a kick in the flush queue, coalescing into an already-
// pending kick for the same target (keeping the earliest delay) — the
// simulation analogue of not re-sending a resched IPI to a CPU whose
// TIF_NEED_RESCHED is already set.
func (k *Kernel) batchKick(cpu int, delay time.Duration) {
	if k.ipiPend[cpu] {
		k.IPIsCoalesced++
		if delay < k.ipiDelay[cpu] {
			k.ipiDelay[cpu] = delay
		}
		return
	}
	k.ipiPend[cpu] = true
	k.ipiDelay[cpu] = delay
	k.ipiOrder = append(k.ipiOrder, cpu)
}

// kick schedules a __schedule pass on cpu after delay. Inside a batch
// window the kick is deferred to the flush queue (see batchKick); this is
// transparent to callers because the whole window runs at one virtual
// instant. Kicking an idle CPU pays its C-state exit latency: at least the
// shallow (C1) exit, plus the jittered deep exit when cpuidle has had time
// to descend — this is the cold-core wakeup cost that dominates Tables 4
// and 6. The exit gates the CPU itself: kicks arriving while an exit is
// already in flight wait for it rather than bypassing it. Zero-delay kicks
// coalesce.
func (k *Kernel) kick(cpu int, delay time.Duration) {
	if k.ipiOpen {
		k.batchKick(cpu, delay)
		return
	}
	if k.ipiWindow {
		// Unbatched wake-burst kick: counted here so the batching ablation
		// compares like with like (flushBatch counts the batched ones).
		k.IPIsSent++
	}
	if k.finj != nil {
		// Fault hook: every delivered kick (batched flushes arrive here with
		// the window closed, so each is intercepted exactly once). Drops are
		// modelled as recovery-bounded delays; duplicates bypass the idle-
		// exit gate below — a spurious schedule pass is a no-op by design.
		fate := k.finj.InterceptKick(cpu, delay)
		delay += fate.Delay
		if fate.Duplicate {
			k.eng.Post(delay+fate.DupDelay, k.cpus[cpu].kickFn)
		}
	}
	c := k.cpus[cpu]
	now := k.eng.Now()
	if c.curr == nil {
		if now.Before(c.wakingUntil) {
			// Exit already in flight; this kick lands after it.
			if readyIn := c.wakingUntil.Sub(now); readyIn > delay {
				delay = readyIn
			}
		} else {
			exit := k.costs.IdleExitShallow
			if idle := now.Sub(c.idleSince); c.wasIdle && idle >= k.costs.DeepIdleAfter {
				exit += time.Duration(float64(k.costs.DeepIdleExit) * (0.65 + 0.75*k.rand.Float64()))
			}
			delay += exit
			c.wakingUntil = now.Add(delay)
		}
	}
	if delay == 0 {
		if c.kickPending {
			return
		}
		c.kickPending = true
		k.eng.Post(0, c.kick0Fn)
		return
	}
	k.eng.Post(delay, c.kickFn)
}

// noteCrossing counts (and traces) a task placement that crossed a
// scheduling domain: wake re-targets and balancer migrations alike. The
// distance travels in the trace event's Arg so the Chrome export can tell a
// cache-cold pull from a socket crossing.
func (k *Kernel) noteCrossing(src, dst int, t *Task) {
	d := k.topo.Distance(src, dst)
	if d == core.DistSameLLC {
		return
	}
	k.XLLCMoves++
	if d == core.DistCrossNode {
		k.XNodeMoves++
	}
	if k.tracer != nil {
		k.traceEvent(trace.KindXDomain, dst, t.pid, k.classID(t.class), int64(d))
	}
}

// account charges cpu's current task for the time it has run since the last
// accounting point.
func (k *Kernel) account(c *CPU) {
	t := c.curr
	if t == nil {
		return
	}
	now := k.eng.Now()
	if now <= t.execStart {
		return
	}
	ran := now.Sub(t.execStart)
	t.sumExec += ran
	c.busy += ran
	if ran >= t.segLeft {
		t.segLeft = 0
	} else {
		t.segLeft -= ran
	}
	t.execStart = now
}

// schedule is __schedule: put the previous task, balance, pick, switch.
func (k *Kernel) schedule(cpu int) {
	c := k.cpus[cpu]
	prev := c.curr
	if prev != nil && prev.state == StateRunning && !c.needResched {
		return
	}
	c.needResched = false
	c.inPick, c.pickTimer = true, -1

	oh := k.costs.SchedBase + c.pendingCost
	c.pendingCost = 0

	if prev != nil {
		k.account(c)
		prev.runEvent.Cancel()
		if prev.state == StateRunning {
			prev.state = StateRunnable
			oh += prev.class.OverheadPerCall()
			prev.class.PutPrev(cpu, prev, true)
			prev.queuedAt = k.eng.Now()
		}
		c.curr = nil
	}

	var next *Task
	nextPolicy := -1
	for _, slot := range k.classes {
		oh += 2 * slot.class.OverheadPerCall() // balance + pick crossings
		slot.class.Balance(cpu)
		if k.tracer != nil {
			k.traceEvent(trace.KindBalance, cpu, 0, slot.id, 0)
		}
		if next = slot.class.PickNext(cpu); next != nil {
			nextPolicy = slot.id
			break
		}
	}
	// Costs incurred during balance/pick (timer arms, pulled-task
	// migration) delay this schedule pass.
	oh += c.pendingCost
	c.pendingCost = 0
	c.inPick = false
	if next == nil {
		c.busy += oh
		if c.pickTimer >= 0 {
			k.eng.RescheduleAfter(c.reschedTimer, oh+c.pickTimer)
		}
		if !c.wasIdle {
			c.wasIdle = true
			c.idleSince = k.eng.Now()
		}
		k.traceEvent(trace.KindIdle, cpu, 0, -1, 0)
		return
	}
	c.wasIdle = false
	if next != prev {
		oh += k.costs.ContextSwitch
		c.switches++
		k.CtxSwitches++
	}
	c.busy += oh
	if c.pickTimer >= 0 {
		// The quantum starts when the task does (execStart = now + oh).
		k.eng.RescheduleAfter(c.reschedTimer, oh+c.pickTimer)
	}
	c.curr = next
	next.state = StateRunning
	next.cpu = cpu
	if k.tracer != nil {
		k.traceEvent(trace.KindSwitch, cpu, next.pid, nextPolicy, 0)
	}
	if k.met != nil {
		cm := k.met.Class(nextPolicy).CPU(cpu)
		cm.Picks++
		cm.PickWait.Record(k.eng.Now().Sub(next.queuedAt))
	}
	k.startSegment(c, next, oh)
	k.ensureTick(c)
}

// startSegment arms the completion event for the task's current compute
// segment, fetching the next action if none is pending. delay is kernel work
// (already charged) that precedes user execution.
func (k *Kernel) startSegment(c *CPU, t *Task, delay time.Duration) {
	if !t.hasPending {
		t.pending = t.behavior.Next(k, t)
		t.hasPending = true
		t.segLeft = t.pending.Run
	}
	now := k.eng.Now()
	t.execStart = now.Add(delay)
	if t.wakePending {
		t.wakePending = false
		lat := t.execStart.Sub(t.lastWake)
		if k.met != nil {
			k.met.Class(k.classID(t.class)).CPU(c.id).WakeToRun.Record(lat)
		}
		if t.OnWake != nil {
			t.OnWake(lat)
		}
	}
	if t.runEvent == nil {
		t.runEvent = k.eng.NewEvent(func() { k.segmentDone(k.cpus[t.cpu], t) })
	}
	k.eng.Reschedule(t.runEvent, t.execStart.Add(t.segLeft))
}

// segmentDone completes the task's current segment: perform its wakes, then
// apply its operation.
func (k *Kernel) segmentDone(c *CPU, t *Task) {
	if c.curr != t || t.state != StateRunning {
		return // stale completion; the task was preempted or moved
	}
	k.account(c)
	// Copy the action out of the inline slot: a startSegment below refills
	// t.pending for the next segment.
	act := t.pending

	// The wake burst runs inside one batch window: module messages flow
	// per-wake as always, but remote kicks coalesce per target and drain
	// in one flush at the end of the burst (the event boundary).
	extra := time.Duration(0)
	k.beginBatch()
	for _, w := range act.Wake {
		if w.state == StateBlocked {
			extra += k.doWake(w, c.id, extra)
		}
	}
	k.flushBatch()
	c.busy += extra

	switch act.Op {
	case OpContinue:
		t.hasPending = false
		if c.needResched {
			c.pendingCost += extra
			k.schedule(c.id)
		} else {
			k.startSegment(c, t, extra)
		}
	case OpYield:
		t.hasPending = false
		t.state = StateRunnable
		c.curr = nil
		c.pendingCost += extra + t.class.OverheadPerCall()
		t.class.Yield(c.id, t)
		t.queuedAt = k.eng.Now()
		k.schedule(c.id)
	case OpBlock, OpSleep:
		if act.Op == OpBlock && act.Recheck != nil && act.Recheck() {
			// Futex-style recheck: a wake raced with the block
			// decision; keep running.
			t.hasPending = false
			if c.needResched {
				c.pendingCost += extra
				k.schedule(c.id)
			} else {
				k.startSegment(c, t, extra)
			}
			return
		}
		t.hasPending = false
		t.state = StateBlocked
		c.curr = nil
		c.pendingCost += extra + t.class.OverheadPerCall()
		t.class.Dequeue(c.id, t, true)
		if act.Op == OpSleep {
			if t.wakeFn == nil {
				t.wakeFn = func() { k.Wake(t) }
			}
			k.eng.Post(act.SleepFor, t.wakeFn)
		}
		k.schedule(c.id)
	case OpExit:
		t.hasPending = false
		t.state = StateDead
		c.curr = nil
		c.pendingCost += extra + 2*t.class.OverheadPerCall()
		t.class.Dequeue(c.id, t, false)
		t.class.TaskDead(t)
		delete(k.tasks, t.pid)
		k.traceEvent(trace.KindExit, c.id, t.pid, k.classID(t.class), 0)
		if t.OnExit != nil {
			t.OnExit()
		}
		k.schedule(c.id)
	default:
		panic(fmt.Sprintf("kernel: invalid op %d from %s", act.Op, t))
	}
}

// ensureTick starts the per-CPU scheduler tick chain if it is not running.
// The chain self-stops when the CPU goes idle.
func (k *Kernel) ensureTick(c *CPU) {
	if c.tickRunning {
		return
	}
	c.tickRunning = true
	k.eng.RescheduleAfter(c.tickEvent, k.costs.TickPeriod)
}

// tickFire is one scheduler tick on c: charge the tick cost, let the current
// task's class account and preempt, then re-arm the persistent tick event.
func (k *Kernel) tickFire(c *CPU) {
	if c.curr == nil {
		c.tickRunning = false
		return
	}
	c.busy += k.costs.Tick
	k.account(c)
	t := c.curr
	c.busy += t.class.OverheadPerCall()
	t.class.Tick(c.id, t)
	k.traceEvent(trace.KindTick, c.id, t.pid, k.classID(t.class), 0)
	k.nohzKick(c)
	k.eng.RescheduleAfter(c.tickEvent, k.costs.TickPeriod)
}

// nohzKick is the NOHZ idle-balance analogue: a busy CPU with queued work
// kicks the nearest idle CPU — LLC sibling first, then same socket, then
// anywhere — so that CPU runs a schedule pass and its classes get a Balance
// opportunity to pull the backlog with the least cache damage.
func (k *Kernel) nohzKick(c *CPU) {
	queued := 0
	for _, s := range k.classes {
		queued += s.class.NRunnable(c.id)
	}
	if queued == 0 {
		return
	}
	n := k.machine.NumCPUs
	best, bestDist := -1, 0
	for i := 1; i < n; i++ {
		cpu := (c.id + i) % n
		if k.cpus[cpu].curr != nil {
			continue
		}
		d := k.topo.Distance(cpu, c.id)
		if d == core.DistSameLLC {
			best = cpu
			break
		}
		if best == -1 || d < bestDist {
			best, bestDist = cpu, d
		}
	}
	if best >= 0 {
		k.kick(best, k.costs.IPIDeliver)
	}
}

// MoveTask migrates a runnable (not running) task to dst, honouring
// affinity. It reports whether the move happened. Balancers call this; the
// migration cost is charged to dst's next schedule pass.
func (k *Kernel) MoveTask(t *Task, dst int) bool {
	if t.state != StateRunnable || !t.allowed.has(dst) || dst == t.cpu {
		return false
	}
	if k.cpus[t.cpu].curr == t {
		return false
	}
	src := t.cpu
	t.class.Dequeue(src, t, false)
	t.class.Migrate(t, src, dst)
	k.noteCrossing(src, dst, t)
	t.cpu = dst
	t.class.Enqueue(dst, t, false)
	c := k.cpus[dst]
	c.pendingCost += k.costs.MigrateTask
	if !k.machine.SameNode(src, dst) {
		c.pendingCost += k.costs.CrossNodeExtra
	}
	if c.curr == nil {
		k.kick(dst, 0)
	}
	return true
}

// SetNice changes a task's nice value and notifies its class.
func (k *Kernel) SetNice(t *Task, nice int) {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	if t.state == StateRunning {
		k.account(k.cpus[t.cpu])
	}
	t.nice = nice
	t.class.PrioChanged(t)
}

// SetAffinity changes a task's allowed CPUs. A running or queued task on a
// now-forbidden CPU is moved to an allowed one.
func (k *Kernel) SetAffinity(t *Task, m CPUMask) {
	if m.Count() == 0 {
		panic("kernel: SetAffinity with empty mask")
	}
	t.allowed = m
	t.class.AffinityChanged(t)
	if t.state == StateDead || m.Has(t.cpu) {
		return
	}
	dst := k.clampToAffinity(t, -1)
	switch t.state {
	case StateRunnable:
		if k.cpus[t.cpu].curr != t {
			k.MoveTask(t, dst)
		}
	case StateRunning:
		// Force the task off its CPU; it re-selects a queue on requeue.
		c := k.cpus[t.cpu]
		k.account(c)
		t.runEvent.Cancel()
		t.state = StateRunnable
		t.class.PutPrev(t.cpu, t, true)
		t.class.Dequeue(t.cpu, t, false)
		t.class.Migrate(t, t.cpu, dst)
		src := t.cpu
		t.cpu = dst
		t.class.Enqueue(dst, t, false)
		t.queuedAt = k.eng.Now()
		c.curr = nil
		k.schedule(src)
		k.kick(dst, 0)
	}
}

// SetScheduler moves a task to the class registered under classID
// (sched_setscheduler). The task keeps running; its queueing moves to the
// new class.
func (k *Kernel) SetScheduler(t *Task, classID int) {
	newClass, ok := k.byID[classID]
	if !ok {
		panic(fmt.Sprintf("kernel: SetScheduler to unregistered class %d", classID))
	}
	if newClass == t.class {
		return
	}
	old := t.class
	switch t.state {
	case StateDead:
		return
	case StateBlocked:
		old.Detach(t)
		t.class = newClass
		newClass.TaskNew(t)
	case StateRunnable:
		running := k.cpus[t.cpu].curr == t
		if running {
			// Impossible by state invariant, but guard anyway.
			panic("kernel: runnable task is current")
		}
		old.Dequeue(t.cpu, t, false)
		old.Detach(t)
		t.class = newClass
		newClass.TaskNew(t)
		target := k.clampToAffinity(t, newClass.SelectRQ(t, t.cpu, false))
		t.cpu = target
		newClass.Enqueue(target, t, false)
		k.afterEnqueue(t, target, false, 0)
	case StateRunning:
		c := k.cpus[t.cpu]
		k.account(c)
		t.runEvent.Cancel()
		t.state = StateRunnable
		old.PutPrev(t.cpu, t, true)
		old.Dequeue(t.cpu, t, false)
		old.Detach(t)
		t.class = newClass
		newClass.TaskNew(t)
		target := k.clampToAffinity(t, newClass.SelectRQ(t, t.cpu, false))
		src := t.cpu
		t.cpu = target
		newClass.Enqueue(target, t, false)
		c.curr = nil
		k.schedule(src)
		k.afterEnqueue(t, target, false, 0)
	}
}

// RunFor advances the simulation by d.
func (k *Kernel) RunFor(d time.Duration) {
	k.eng.RunUntil(k.eng.Now().Add(d))
}

// RunUntilIdle runs the simulation until the event queue drains (all tasks
// exited or blocked with no timers pending).
func (k *Kernel) RunUntilIdle() { k.eng.Run() }
