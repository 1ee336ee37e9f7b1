package main

import (
	"fmt"
	"time"

	"enoki"
)

// wakePolicy is the verified-tier class every task of the wake workload
// runs on; CFS at policy 0 is only its fallback.
const wakePolicy = 1

// wakeStartSlice is the virtual step the drive takes while it waits for
// every cross-shard pair to park before their first round.
const wakeStartSlice = 20 * time.Microsecond

// wakeShape sizes the wake-verified workload.
type wakeShape struct {
	groups  int // groups per shard
	workers int // workers per local group
	rounds  int // rounds every group completes
	every   int // every n-th group is a cross-shard pair
}

// groupSpec is one generated group: where it runs and how long its
// threads work.
type groupSpec struct {
	shard   int // shard of the message thread
	cross   bool
	burst   time.Duration // mean worker think time per round
	msgWork time.Duration
	pause   time.Duration // message-thread sleep between rounds
	seed    uint64
}

// wakeVerified is the wake-verified workload: schbench-style message and
// worker groups on a two-socket Machine80 under the verified dual-queue
// program, driven by the parallel sharded executor. A fixed share of the
// groups are message/worker pairs split across the two sockets that wake
// each other with ShardedKernel.RemoteWake. See README.md.
type wakeVerified struct {
	shape wakeShape
	specs []groupSpec

	s      *enoki.System
	locals []*localGroup
	pairs  []*remotePair
	hists  [2]hist // wake→run latency, one per shard (shards run in parallel)
}

func newWakeVerified(seed uint64, shape wakeShape) *wakeVerified {
	rng := enoki.NewRand(mix(seed, 0x3a4e))
	w := &wakeVerified{shape: shape}
	for sh := 0; sh < 2; sh++ {
		for g := 0; g < shape.groups; g++ {
			w.specs = append(w.specs, groupSpec{
				shard:   sh,
				cross:   g%shape.every == shape.every-1,
				burst:   time.Duration(40+rng.Intn(21)) * time.Microsecond,
				msgWork: time.Duration(8+rng.Intn(5)) * time.Microsecond,
				pause:   time.Duration(150+rng.Intn(101)) * time.Microsecond,
				seed:    rng.Uint64(),
			})
		}
	}
	return w
}

func (w *wakeVerified) setup(sp spans) {
	t := time.Now()
	w.s = enoki.NewSystem(
		enoki.WithMachine(enoki.Machine80()),
		enoki.WithShards(2),
		enoki.WithParallelSim(true),
	)
	sp.add("system.new_s", time.Since(t).Seconds())
	t = time.Now()
	w.s.RegisterCFS(0)
	w.s.MustAttach(wakePolicy, enoki.VerifiedProgram(enoki.VDualQueueProgram()))
	sp.add("system.attach_s", time.Since(t).Seconds())

	t = time.Now()
	w.hists = [2]hist{}
	w.locals, w.pairs = w.locals[:0], w.pairs[:0]
	sk := w.s.Sharded()
	for _, gs := range w.specs {
		if gs.cross {
			w.pairs = append(w.pairs, w.spawnPair(sk, gs))
		} else {
			w.locals = append(w.locals, w.spawnLocal(gs))
		}
	}
	sp.add("system.spawn_s", time.Since(t).Seconds())
}

func (w *wakeVerified) spawnLocal(gs groupSpec) *localGroup {
	k := w.s.ShardKernel(gs.shard)
	g := &localGroup{rounds: w.shape.rounds, burst: gs.burst, msgWork: gs.msgWork,
		pause: gs.pause, rng: enoki.NewRand(gs.seed)}
	g.allIn = g.allResponded
	// Observers run inside their shard's execution context, so each shard
	// records into its own histogram.
	obs := enoki.WithWakeObserver(w.hists[gs.shard].record)
	for i := 0; i < w.shape.workers; i++ {
		wk := &localWorker{g: g}
		wk.recheck = wk.newRound
		g.workers = append(g.workers, k.Spawn("worker", wakePolicy, wk, obs))
	}
	g.msg = k.Spawn("msg", wakePolicy, &localMsg{g: g}, obs, enoki.WithNice(-5))
	g.msgOnly = []*enoki.Task{g.msg}
	return g
}

func (w *wakeVerified) spawnPair(sk *enoki.ShardedKernel, gs groupSpec) *remotePair {
	a, b := gs.shard, 1-gs.shard
	p := &remotePair{rounds: w.shape.rounds, burst: gs.burst, msgWork: gs.msgWork,
		pause: gs.pause, rng: enoki.NewRand(gs.seed), wake: sk.RemoteWake, a: a, b: b}
	p.worker = w.s.ShardKernel(b).Spawn("worker", wakePolicy, (*pairWorker)(p),
		enoki.WithWakeObserver(w.hists[b].record))
	p.msg = w.s.ShardKernel(a).Spawn("msg", wakePolicy, (*pairMsg)(p),
		enoki.WithWakeObserver(w.hists[a].record), enoki.WithNice(-5))
	return p
}

func (w *wakeVerified) drive(slice time.Duration, lap func()) {
	w.startPairs()
	if slice > 0 {
		for w.s.Sharded().NumTasks() > 0 {
			w.s.Run(slice)
			lap()
		}
	}
	w.s.RunUntilIdle()
}

// startPairs runs the simulation until both tasks of every cross-shard
// pair have parked, then wakes each pair's message thread between runs. A
// remote wake that reached a task still waiting for its first CPU would be
// lost, so no pair starts before both of its ends are parked.
func (w *wakeVerified) startPairs() {
	parked := func() bool {
		for _, p := range w.pairs {
			if p.msgPh == 0 || p.workerPh == 0 {
				return false
			}
		}
		return true
	}
	// Every task parks within microseconds of virtual time; the limit only
	// keeps a broken pair from stalling the run, and finish reports it.
	for t := time.Duration(0); !parked() && t < 1000*wakeStartSlice; t += wakeStartSlice {
		w.s.Run(wakeStartSlice)
	}
	for _, p := range w.pairs {
		w.s.ShardKernel(p.a).Wake(p.msg)
	}
}

func (w *wakeVerified) close() { w.s.Close() }

func (w *wakeVerified) finish() outcome {
	sk := w.s.Sharded()
	o := newOutcome()
	o.units = sk.Wakeups()
	var h hist
	h.merge(&w.hists[0])
	h.merge(&w.hists[1])
	o.p50, o.p99 = h.quantile(0.50), h.quantile(0.99)

	var execs, steps uint64
	for i := 0; i < w.s.NumShards(); i++ {
		vc, ok := w.s.ShardKernel(i).ClassByID(wakePolicy).(*enoki.VClass)
		if !o.check(ok, fmt.Sprintf("shard %d: policy %d is not the verified class", i, wakePolicy)) {
			continue
		}
		o.check(!vc.Killed(), fmt.Sprintf("shard %d: verified class killed: %v", i, vc.Failure()))
		execs += vc.Stats().Execs
		steps += vc.Stats().Steps
	}
	fp := newFNV()
	for i, g := range w.locals {
		o.check(g.round == g.rounds && g.finished,
			fmt.Sprintf("local group %d stopped at round %d of %d", i, g.round, g.rounds))
		fp.word(uint64(g.round))
		fp.word(uint64(g.msg.SumExec()))
	}
	for i, p := range w.pairs {
		o.check(p.sent == p.rounds && p.replied == p.rounds,
			fmt.Sprintf("cross-shard pair %d: %d rounds sent, %d replied, of %d", i, p.sent, p.replied, p.rounds))
		fp.word(uint64(p.sent))
		fp.word(uint64(p.worker.SumExec()))
	}
	o.check(sk.NumTasks() == 0, fmt.Sprintf("%d tasks still alive", sk.NumTasks()))
	fp.word(sk.CtxSwitches())
	fp.word(sk.Wakeups())
	fp.word(sk.CrossWakes())
	fp.word(h.n)
	for _, c := range h.buckets {
		fp.word(c)
	}
	o.fingerprint = fp.sum()

	c := o.counts
	c["sim.events"] = float64(sk.EventsFired())
	c["sim.epochs"] = float64(sk.Executor().Epochs())
	c["sim.msgs"] = float64(sk.Executor().MsgsSent())
	c["sim.cross_wakes"] = float64(sk.CrossWakes())
	c["kernel.ctx_switches"] = float64(sk.CtxSwitches())
	c["kernel.wakeups"] = float64(sk.Wakeups())
	c["kernel.spawns"] = float64(len(w.locals)*(w.shape.workers+1) + 2*len(w.pairs))
	c["vpol.execs"] = float64(execs)
	c["vpol.steps"] = float64(steps)
	return o
}

// localGroup is one message thread and its workers on one shard. The
// message thread wakes every worker, blocks until all of them have
// responded, pauses, and starts the next round; after the last round it
// wakes the workers once more so they exit. Recheck closes the race
// between a wake and a block decision, futex style.
type localGroup struct {
	rounds                int
	burst, msgWork, pause time.Duration
	rng                   *enoki.Rand

	msg       *enoki.Task
	msgOnly   []*enoki.Task
	workers   []*enoki.Task
	allIn     func() bool
	round     int
	responded int
	paused    bool
	finished  bool
}

func (g *localGroup) allResponded() bool { return g.responded == len(g.workers) }

type localMsg struct{ g *localGroup }

func (m *localMsg) Next(*enoki.Kernel, *enoki.Task) enoki.Action {
	g := m.g
	if g.round > 0 && g.responded < len(g.workers) {
		// Woken before every worker answered.
		return enoki.Action{Op: enoki.OpBlock, Recheck: g.allIn}
	}
	if g.round == g.rounds {
		g.finished = true
		return enoki.Action{Wake: g.workers, Op: enoki.OpExit}
	}
	if !g.paused {
		g.paused = true
		return enoki.Action{Op: enoki.OpSleep, SleepFor: g.pause}
	}
	g.paused = false
	g.round++
	g.responded = 0
	return enoki.Action{Run: g.msgWork, Wake: g.workers, Op: enoki.OpBlock, Recheck: g.allIn}
}

type localWorker struct {
	g        *localGroup
	seen     int
	thinking bool
	recheck  func() bool
}

func (w *localWorker) newRound() bool { return w.g.round != w.seen || w.g.finished }

func (w *localWorker) Next(*enoki.Kernel, *enoki.Task) enoki.Action {
	g := w.g
	if w.thinking {
		w.thinking = false
		g.responded++
		var wake []*enoki.Task
		if g.responded == len(g.workers) {
			wake = g.msgOnly
		}
		return enoki.Action{Wake: wake, Op: enoki.OpBlock, Recheck: w.recheck}
	}
	if g.finished {
		return enoki.Action{Op: enoki.OpExit}
	}
	if g.round == w.seen {
		return enoki.Action{Op: enoki.OpBlock, Recheck: w.recheck}
	}
	w.seen = g.round
	w.thinking = true
	return enoki.Action{Run: g.rng.UniformDuration(g.burst/2, g.burst*3/2), Op: enoki.OpContinue}
}

// remotePair is a message thread on shard a and one worker on shard b.
// They share no memory while the simulation runs: each side touches only
// its own fields, and every round crosses the sockets twice through
// RemoteWake. Both ends park before the drive starts the pair, each side
// blocks in the same step that sends its wake, and a wake lands a
// lookahead later, so no wake finds its target still running.
type remotePair struct {
	rounds                int
	burst, msgWork, pause time.Duration
	wake                  func(from, to int, t *enoki.Task)
	a, b                  int
	msg, worker           *enoki.Task

	// Shard a's side.
	sent  int
	msgPh int
	// Shard b's side.
	rng      *enoki.Rand
	replied  int
	workerPh int
}

type pairMsg remotePair

func (m *pairMsg) Next(*enoki.Kernel, *enoki.Task) enoki.Action {
	switch m.msgPh {
	case 0: // park until the drive starts the pair
		m.msgPh = 1
		return enoki.Action{Op: enoki.OpBlock}
	case 1: // start a round, or stop after the last
		if m.sent == m.rounds {
			return enoki.Action{Op: enoki.OpExit}
		}
		m.msgPh = 2
		return enoki.Action{Run: m.msgWork, Op: enoki.OpContinue}
	case 2: // wake the worker across the sockets and wait for its reply
		m.sent++
		m.wake(m.a, m.b, m.worker)
		m.msgPh = 3
		return enoki.Action{Op: enoki.OpBlock}
	default: // replied: pause before the next round
		m.msgPh = 1
		return enoki.Action{Op: enoki.OpSleep, SleepFor: m.pause}
	}
}

type pairWorker remotePair

func (w *pairWorker) Next(*enoki.Kernel, *enoki.Task) enoki.Action {
	switch w.workerPh {
	case 0: // park until the first wake
		w.workerPh = 1
		return enoki.Action{Op: enoki.OpBlock}
	case 1: // woken: think
		w.workerPh = 2
		return enoki.Action{Run: w.rng.UniformDuration(w.burst/2, w.burst*3/2), Op: enoki.OpContinue}
	default: // reply across the sockets
		w.replied++
		w.wake(w.b, w.a, w.msg)
		if w.replied == w.rounds {
			return enoki.Action{Op: enoki.OpExit}
		}
		w.workerPh = 1
		return enoki.Action{Op: enoki.OpBlock}
	}
}
