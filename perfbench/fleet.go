package main

import (
	"fmt"
	"time"

	"enoki"
)

// fleetBatch is the fleet-batch workload: a batch of jobs submitted up
// front to a parallel-driven fleet of 8-CPU machines, one of which dies
// mid-run. See README.md for why it was chosen and what it loads.
type fleetBatch struct {
	machines int
	jobs     []enoki.JobSpec
	kill     int           // machine that fails
	killAt   time.Duration // when it fails

	cl *enoki.Cluster
}

// newFleetBatch generates the workload's inputs from seed. The job mix is
// the one enokibench -fleet draws: 2-4 cycles of 100-300µs run, half of
// them with a 200µs sleep between cycles.
func newFleetBatch(seed uint64, machines, jobs int) *fleetBatch {
	rng := enoki.NewRand(mix(seed, 0xf1ee7))
	w := &fleetBatch{machines: machines, jobs: make([]enoki.JobSpec, jobs)}
	for i := range w.jobs {
		w.jobs[i] = enoki.JobSpec{
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		}
	}
	w.kill = rng.Intn(machines)
	// Every machine holds about jobs/machines × 0.4ms of CPU work on 8
	// CPUs; the failure lands a tenth of the way through it.
	perMachine := time.Duration(jobs/machines) * 400 * time.Microsecond / 8
	w.killAt = perMachine/10 + time.Duration(rng.Intn(1000))*time.Microsecond
	return w
}

func (w *fleetBatch) setup(sp spans) {
	t := time.Now()
	w.cl = enoki.NewCluster(
		enoki.WithMachines(w.machines),
		enoki.WithMachineTemplate(enoki.Machine8()),
		enoki.WithPlacer("leastloaded"),
		enoki.WithFleetParallel(true),
	)
	sp.add("cluster.new_s", time.Since(t).Seconds())
	t = time.Now()
	for _, j := range w.jobs {
		w.cl.Submit(j)
	}
	w.cl.FailMachine(w.kill, w.killAt)
	sp.add("cluster.submit_ns_per_job", float64(time.Since(t).Nanoseconds())/float64(len(w.jobs)))
}

func (w *fleetBatch) drive(slice time.Duration, lap func()) {
	if slice > 0 {
		for w.cl.Stats().Done < len(w.jobs) {
			w.cl.Run(slice)
			lap()
		}
	}
	w.cl.RunUntilIdle()
}

func (w *fleetBatch) close() { w.cl.Close() }

func (w *fleetBatch) finish() outcome {
	st := w.cl.Stats()
	fl := w.cl.Fleet()
	o := newOutcome()
	o.units = uint64(st.Done)
	o.check(st.Done == len(w.jobs), fmt.Sprintf("done %d of %d jobs", st.Done, len(w.jobs)))
	o.check(st.Lost > 0, "the failed machine lost no placement")
	o.check(st.MsgsSent == st.MsgsDelivered+st.MsgsDropped,
		fmt.Sprintf("messages sent %d != delivered %d + dropped %d", st.MsgsSent, st.MsgsDelivered, st.MsgsDropped))

	fp := newFNV()
	var cross, wakeups uint64
	for i := 0; i < w.cl.NumMachines(); i++ {
		m := w.cl.Machine(i)
		sk := m.Sharded()
		fp.word(m.TasksSpawned())
		fp.word(sk.CtxSwitches())
		fp.word(sk.Wakeups())
		cross += sk.CrossWakes()
		wakeups += sk.Wakeups()
	}
	e2e := make([]float64, w.cl.NumJobs())
	for i := range e2e {
		j := w.cl.Job(i)
		e2e[i] = float64(j.DoneAt - j.SubmittedAt)
		fp.word(uint64(j.State))
		fp.word(uint64(int64(j.Machine)))
		fp.word(uint64(j.Restarts)<<32 | uint64(j.Migrations))
		fp.word(uint64(j.DoneAt))
	}
	o.fingerprint = fp.sum()
	// Exact quantiles over every job: the cluster's own histogram has
	// 12%-wide buckets.
	o.p50 = time.Duration(quantile(e2e, 0.50))
	o.p99 = time.Duration(quantile(e2e, 0.99))

	c := o.counts
	c["sim.events"] = float64(st.EventsFired)
	c["sim.epochs"] = float64(fl.Epochs())
	c["sim.msgs"] = float64(st.MsgsSent)
	c["sim.cross_wakes"] = float64(cross)
	c["kernel.ctx_switches"] = float64(st.CtxSwitches)
	c["kernel.wakeups"] = float64(wakeups)
	c["kernel.spawns"] = float64(st.TasksSpawned)
	c["cluster.starts"] = float64(st.StartsSent)
	c["cluster.lost"] = float64(st.Lost)
	return o
}
