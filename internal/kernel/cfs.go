package kernel

import (
	"time"

	"enoki/internal/core"
	"enoki/internal/rbtree"
)

// NICE0Load is the CFS load weight of a nice-0 task.
const NICE0Load = 1024

// niceToWeight is the kernel's sched_prio_to_weight table: each nice step
// changes CPU share by ~10% relative to neighbours.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// WeightOf returns the CFS load weight for a nice value.
func WeightOf(nice int) int64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceToWeight[nice+20]
}

// CFS tuning knobs (kernel defaults with CONFIG_HZ=1000 scaling).
const (
	cfsTargetLatency   = 6 * time.Millisecond
	cfsMinGranularity  = 750 * time.Microsecond
	cfsWakeupGranNS    = int64(time.Millisecond)     // wakeup preemption granularity, vruntime ns
	cfsSleeperCreditNS = int64(3 * time.Millisecond) // GENTLE_FAIR_SLEEPERS: latency/2
	cfsNrLatency       = 8
	cfsBalancePeriod   = 4 * time.Millisecond
	// cfsLLCImbalance is the extra queue depth a same-socket CPU outside
	// the puller's LLC domain must show before a cache-cold pull is worth
	// it; cfsNUMAImbalance is the (larger) threshold for crossing sockets.
	// Balancing is sharded by domain: newidle steals inside the LLC first
	// and escalates outward only past these thresholds.
	cfsLLCImbalance  = 1
	cfsNUMAImbalance = 2
)

// cfsEntity is the per-task CFS state (struct sched_entity analogue). It
// lives inside its Task (Task.cfs) and embeds its own run-queue node, which
// is linked into a cfsRq tree exactly while the entity is queued and not
// running.
type cfsEntity struct {
	t           *Task
	weight      int64
	vruntime    int64 // weighted virtual runtime, ns
	prevSum     time.Duration
	lastPickSum time.Duration
	node        rbtree.Node[int64, *cfsEntity]
	everRan     bool
}

// cfsRq is the per-CPU CFS run queue.
type cfsRq struct {
	tree        *rbtree.Tree[int64, *cfsEntity]
	minV        int64
	curr        *cfsEntity
	totalWeight int64 // queued + running weight
}

func newCfsRq() *cfsRq {
	return &cfsRq{tree: rbtree.New[int64, *cfsEntity](func(a, b int64) bool { return a < b })}
}

// nrTotal is runnable count including the running task.
func (rq *cfsRq) nrTotal() int {
	n := rq.tree.Len()
	if rq.curr != nil {
		n++
	}
	return n
}

func (rq *cfsRq) updateMinV() {
	v := rq.minV
	if rq.curr != nil {
		v = rq.curr.vruntime
	}
	if left := rq.tree.Min(); left != nil {
		lv := left.Value().vruntime
		if rq.curr == nil || lv < v {
			v = lv
		}
	}
	if v > rq.minV {
		rq.minV = v
	}
}

// CFS is the simulated Completely Fair Scheduler: the native weighted
// fair queuing baseline every Enoki experiment compares against. Its
// balancing is sharded by scheduling domain: each CPU holds precomputed
// scan lists — LLC siblings, same-socket CPUs outside the LLC, and remote-
// socket CPUs — and every idle search or pull walks them inside-out.
type CFS struct {
	k           *Kernel
	topo        *core.Topology
	rqs         []*cfsRq
	lastBalance []time.Duration // per-CPU busy stamp of last periodic balance
	nextBal     []int64
	tickCount   []int64

	// llcPeers[cpu] lists cpu's LLC domain (self included, ascending);
	// nodePeers[cpu] the rest of its socket; remotePeers[cpu] everything
	// across sockets. Built once so the balance hot path never rescans
	// the whole machine testing domain membership.
	llcPeers    [][]int
	nodePeers   [][]int
	remotePeers [][]int
}

var _ Class = (*CFS)(nil)

// NewCFS builds a CFS class for kernel k (one run queue per CPU), sharded
// over the kernel's scheduling domains.
func NewCFS(k *Kernel) *CFS { return newCFS(k, k.Topo()) }

// NewCFSFlat builds a CFS that sees the whole machine as one domain —
// load balancing and wake placement ignore sockets and caches (the kernel
// still charges the machine's real cross-node costs). This is the "flat"
// baseline the NUMA experiments compare topology-aware CFS against.
func NewCFSFlat(k *Kernel) *CFS { return newCFS(k, core.FlatTopology(k.NumCPUs())) }

func newCFS(k *Kernel, topo *core.Topology) *CFS {
	c := &CFS{k: k, topo: topo}
	n := k.NumCPUs()
	for i := 0; i < n; i++ {
		c.rqs = append(c.rqs, newCfsRq())
		c.lastBalance = append(c.lastBalance, 0)
		c.nextBal = append(c.nextBal, 0)
		c.tickCount = append(c.tickCount, 0)
	}
	c.llcPeers = make([][]int, n)
	c.nodePeers = make([][]int, n)
	c.remotePeers = make([][]int, n)
	for cpu := 0; cpu < n; cpu++ {
		c.llcPeers[cpu] = topo.Siblings(cpu)
		for i := 0; i < n; i++ {
			switch topo.Distance(cpu, i) {
			case core.DistSameNode:
				c.nodePeers[cpu] = append(c.nodePeers[cpu], i)
			case core.DistCrossNode:
				c.remotePeers[cpu] = append(c.remotePeers[cpu], i)
			}
		}
	}
	return c
}

// Name implements Class.
func (c *CFS) Name() string { return "CFS" }

// OverheadPerCall implements Class: CFS is native, no framework overhead.
func (c *CFS) OverheadPerCall() time.Duration { return 0 }

func (c *CFS) ent(t *Task) *cfsEntity { return t.classData.(*cfsEntity) }

// TaskNew implements Class: reset the task's embedded entity to the state
// of a fresh fork, so a task that left CFS and comes back (setscheduler,
// module-kill rehome) carries nothing over from its earlier stay.
func (c *CFS) TaskNew(t *Task) {
	t.cfs = cfsEntity{t: t, weight: WeightOf(t.Nice())}
	t.classData = &t.cfs
}

// TaskDead implements Class.
func (c *CFS) TaskDead(t *Task) { t.classData = nil }

// Detach implements Class.
func (c *CFS) Detach(t *Task) { t.classData = nil }

// updateCurr charges the running entity's execution since the last update to
// its vruntime.
func (c *CFS) updateCurr(cpu int) {
	rq := c.rqs[cpu]
	e := rq.curr
	if e == nil {
		return
	}
	delta := e.t.SumExec() - e.prevSum
	if delta <= 0 {
		return
	}
	e.prevSum = e.t.SumExec()
	e.vruntime += int64(delta) * NICE0Load / e.weight
	rq.updateMinV()
}

// Enqueue implements Class.
func (c *CFS) Enqueue(cpu int, t *Task, wakeup bool) {
	rq := c.rqs[cpu]
	e := c.ent(t)
	e.prevSum = t.SumExec()
	switch {
	case wakeup:
		// place_entity: sleepers get bounded credit so they run soon
		// but cannot monopolise after long sleeps.
		if v := rq.minV - cfsSleeperCreditNS; e.vruntime < v {
			e.vruntime = v
		}
	case !e.everRan:
		// START_DEBIT: a forked task starts one slice behind.
		e.everRan = true
		e.vruntime = rq.minV + c.vslice(rq, e)
	}
	rq.tree.Insert(&e.node, e.vruntime, e)
	rq.totalWeight += e.weight
	rq.updateMinV()
}

// Dequeue implements Class.
func (c *CFS) Dequeue(cpu int, t *Task, sleep bool) {
	rq := c.rqs[cpu]
	e := c.ent(t)
	if rq.curr == e {
		c.updateCurr(cpu)
		rq.curr = nil
		rq.totalWeight -= e.weight
		rq.updateMinV()
		return
	}
	if e.node.Inserted() {
		rq.tree.Delete(&e.node)
		rq.totalWeight -= e.weight
		rq.updateMinV()
	}
}

// Yield implements Class: charge runtime and requeue behind equal peers.
func (c *CFS) Yield(cpu int, t *Task) {
	c.putBack(cpu, t)
}

// PutPrev implements Class.
func (c *CFS) PutPrev(cpu int, t *Task, preempted bool) {
	c.putBack(cpu, t)
}

func (c *CFS) putBack(cpu int, t *Task) {
	rq := c.rqs[cpu]
	e := c.ent(t)
	if rq.curr != e {
		return // task was never current here (already requeued)
	}
	c.updateCurr(cpu)
	rq.curr = nil
	rq.tree.Insert(&e.node, e.vruntime, e)
}

// PickNext implements Class: run the leftmost (lowest vruntime) entity.
func (c *CFS) PickNext(cpu int) *Task {
	rq := c.rqs[cpu]
	if rq.curr != nil {
		// Shouldn't happen: kernel always puts prev before picking.
		return rq.curr.t
	}
	n := rq.tree.Min()
	if n == nil {
		return nil
	}
	e := n.Value()
	rq.tree.Delete(n)
	rq.curr = e
	e.prevSum = e.t.SumExec()
	e.lastPickSum = e.t.SumExec()
	return e.t
}

// period returns the fair-share period for nr runnable tasks.
func (c *CFS) period(nr int) time.Duration {
	if nr <= cfsNrLatency {
		return cfsTargetLatency
	}
	return time.Duration(nr) * cfsMinGranularity
}

// slice is the wall-clock slice the entity should get this period.
func (c *CFS) slice(rq *cfsRq, e *cfsEntity) time.Duration {
	tw := rq.totalWeight
	if tw <= 0 {
		tw = e.weight
	}
	s := time.Duration(int64(c.period(rq.nrTotal())) * e.weight / tw)
	if s < cfsMinGranularity {
		s = cfsMinGranularity
	}
	return s
}

// vslice is the slice converted to vruntime units.
func (c *CFS) vslice(rq *cfsRq, e *cfsEntity) int64 {
	return int64(c.slice(rq, e)) * NICE0Load / e.weight
}

// Tick implements Class: slice expiry plus the periodic load balancer.
func (c *CFS) Tick(cpu int, t *Task) {
	rq := c.rqs[cpu]
	c.updateCurr(cpu)
	e := rq.curr
	if e != nil && rq.tree.Len() > 0 {
		ran := t.SumExec() - e.lastPickSum
		if ran >= c.slice(rq, e) {
			c.k.Resched(cpu)
		} else if left := rq.tree.Min(); left != nil {
			// Preempt if the leftmost waiter is far behind us.
			if e.vruntime-left.Value().vruntime > c.vslice(rq, e) {
				c.k.Resched(cpu)
			}
		}
	}
	c.tickCount[cpu]++
	if c.tickCount[cpu]%int64(cfsBalancePeriod/c.k.Costs().TickPeriod) == int64(cpu)%4 {
		c.periodicBalance(cpu)
	}
}

// CheckPreempt implements Class: wakeup preemption within CFS.
func (c *CFS) CheckPreempt(cpu int, woken *Task) {
	rq := c.rqs[cpu]
	if rq.curr == nil {
		return
	}
	c.updateCurr(cpu)
	if c.ent(woken).vruntime+cfsWakeupGranNS < rq.curr.vruntime {
		c.k.Resched(cpu)
	}
}

// SelectRQ implements Class: prefer the previous CPU if idle, then an idle
// sibling inside-out — LLC domain first, then the rest of the socket — and
// only then fall back to the least-loaded allowed CPU (proximity breaking
// ties), so wake placement stays cache- and socket-local when it can.
func (c *CFS) SelectRQ(t *Task, prevCPU int, wakeup bool) int {
	n := len(c.rqs)
	if prevCPU < 0 || prevCPU >= n {
		prevCPU = 0
	}
	if wakeup && t.allowed.has(prevCPU) && c.idleCPU(prevCPU) {
		return prevCPU
	}
	// Idle sibling in the LLC domain, then the rest of the socket.
	for _, i := range c.llcPeers[prevCPU] {
		if t.allowed.has(i) && c.idleCPU(i) {
			return i
		}
	}
	for _, i := range c.nodePeers[prevCPU] {
		if t.allowed.has(i) && c.idleCPU(i) {
			return i
		}
	}
	if wakeup {
		// No idle sibling on the socket: stay put (wake_affine keeps
		// cache warmth and avoids a cross-node placement).
		if t.allowed.has(prevCPU) {
			return prevCPU
		}
	}
	// Fork/exec (or forbidden prev): least-loaded allowed CPU, scanned
	// inside-out so proximity to prev breaks load ties.
	best, bestLoad := -1, int64(0)
	scan := func(peers []int) {
		for _, i := range peers {
			if !t.allowed.has(i) {
				continue
			}
			load := c.rqs[i].totalWeight
			if c.k.CurrentOn(i) == nil && c.rqs[i].tree.Len() == 0 {
				load = 0
			}
			if best == -1 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
	}
	scan(c.llcPeers[prevCPU])
	scan(c.nodePeers[prevCPU])
	scan(c.remotePeers[prevCPU])
	if best == -1 {
		return prevCPU
	}
	return best
}

func (c *CFS) idleCPU(cpu int) bool {
	return c.k.CurrentOn(cpu) == nil && c.rqs[cpu].tree.Len() == 0
}

// Balance implements Class: newidle balancing — when this CPU has no CFS
// work, pull one task, stealing inside the LLC domain first and escalating
// outward only past the per-level imbalance thresholds.
func (c *CFS) Balance(cpu int) {
	rq := c.rqs[cpu]
	if rq.tree.Len() > 0 || rq.curr != nil {
		return
	}
	c.pullFrom(cpu, 1, cfsNUMAImbalance+1)
}

// periodicBalance evens out queue lengths across CPUs.
func (c *CFS) periodicBalance(cpu int) {
	rq := c.rqs[cpu]
	c.pullFrom(cpu, rq.nrTotal()+2, rq.nrTotal()+cfsNUMAImbalance+2)
}

// pullFrom walks cpu's scan lists inside-out — LLC siblings, then the rest
// of the socket at +cfsLLCImbalance, then remote sockets at minRemote — and
// stops at the innermost level that yields a pull. A cache-hot steal inside
// the LLC always beats a colder one further out, so socket crossings happen
// only when every nearer queue is balanced.
func (c *CFS) pullFrom(cpu, minLocal, minRemote int) {
	if c.pullWithin(cpu, c.llcPeers[cpu], minLocal) {
		return
	}
	if c.pullWithin(cpu, c.nodePeers[cpu], minLocal+cfsLLCImbalance) {
		return
	}
	c.pullWithin(cpu, c.remotePeers[cpu], minRemote)
}

// pullWithin moves one task to cpu from the busiest queue among peers whose
// runnable count exceeds min, and reports whether a pull happened.
func (c *CFS) pullWithin(cpu int, peers []int, min int) bool {
	busiest, busiestNr := -1, 0
	for _, i := range peers {
		if i == cpu {
			continue
		}
		nr := c.rqs[i].nrTotal()
		if nr > min && nr > busiestNr {
			busiest, busiestNr = i, nr
		}
	}
	if busiest == -1 {
		return false
	}
	// Steal the entity with the highest vruntime (least urgent): walk to
	// the tree's last element.
	src := c.rqs[busiest]
	var victim *cfsEntity
	src.tree.Ascend(func(n *rbtree.Node[int64, *cfsEntity]) bool {
		if n.Value().t.allowed.has(cpu) {
			victim = n.Value()
		}
		return true
	})
	if victim == nil {
		return false
	}
	c.k.MoveTask(victim.t, cpu)
	return true
}

// Migrate implements Class: renormalise vruntime between queues so a task
// carries its relative (not absolute) progress.
func (c *CFS) Migrate(t *Task, src, dst int) {
	e := c.ent(t)
	e.vruntime = e.vruntime - c.rqs[src].minV + c.rqs[dst].minV
}

// PrioChanged implements Class.
func (c *CFS) PrioChanged(t *Task) {
	e := c.ent(t)
	old := e.weight
	e.weight = WeightOf(t.Nice())
	if e.node.Inserted() || c.rqs[t.CPU()].curr == e {
		c.rqs[t.CPU()].totalWeight += e.weight - old
	}
}

// AffinityChanged implements Class: nothing cached beyond the mask.
func (c *CFS) AffinityChanged(t *Task) {}

// NRunnable implements Class.
func (c *CFS) NRunnable(cpu int) int { return c.rqs[cpu].tree.Len() }
