package main

import (
	"fmt"
	"time"

	"enoki"
)

// edgePolicy is the class the api tier runs on: shinjuku as a Go module
// behind the enokic crossing. The edge and antagonist tiers run on CFS at
// policy 0.
const edgePolicy = 1

// edgeDrain is how long the rig runs after arrivals stop, so every
// admitted request completes before the books are checked.
const edgeDrain = 40 * time.Millisecond

// edgeSampleEvery is the brownout sampling period System.DriveTraffic
// uses; the traced drive builds its drivers by hand and must match it.
const edgeSampleEvery = 250 * time.Microsecond

// edgeFlash is the edge-flash workload: the enokibench -overload scenario
// on one two-socket Machine80, driven serially. See README.md.
type edgeFlash struct {
	sc        enoki.TrafficScenario
	admission []enoki.AdmissionClass
	enter     int // api-tier brownout enter depth
	exit      int // api-tier brownout exit depth

	s        *enoki.System
	sojourns []*sojourn // one per shard
	rep      enoki.TrafficReport
}

// newEdgeFlash generates the scenario. It restates enokibench's overload
// scenario and admission plan for a Machine80 (the originals are not
// exported): the per-CPU arrival rate is fixed at 70k connections per
// second, a high-volume edge tier carries the connection count, the
// shinjuku api tier takes a ×6 flash crowd and browns out, an unlimited
// antagonist crowds both, and a churn storm closes the run. scale shrinks
// the duration for tests; the seed drives every arrival and service draw.
func newEdgeFlash(seed uint64, scale float64) *edgeFlash {
	m := enoki.Machine80()
	dur := time.Duration(float64(200*time.Millisecond) * scale)
	cpus := m.NumCPUs / m.NumNodes
	return &edgeFlash{
		sc: enoki.TrafficScenario{
			Seed:       mix(seed, 0xed9e),
			Rate:       70_000 * float64(m.NumCPUs),
			Duration:   dur,
			DiurnalAmp: 0.3,
			Classes: []enoki.TrafficClass{
				{Name: "edge", Policy: 0, Admission: 0, Weight: 0.85,
					Work: 2 * time.Microsecond, ReqPerConn: 2, Think: 500 * time.Microsecond},
				{Name: "api", Policy: edgePolicy, Admission: 1, Weight: 0.10,
					Work: 20 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
				{Name: "antag", Policy: 0, Admission: 2, Weight: 0.05,
					Work: 20 * time.Microsecond},
			},
			Regions: []enoki.TrafficRegion{
				{Name: "us", Share: 0.5},
				{Name: "eu", Share: 0.5, Offset: dur / 2},
			},
			Shapes: []enoki.TrafficShape{
				{Kind: enoki.TrafficAntagonist, Class: 2, At: dur / 10, Dur: dur / 4, Mult: 3},
				{Kind: enoki.TrafficFlash, Class: 1, At: dur * 11 / 20, Dur: dur / 5, Mult: 6},
				{Kind: enoki.TrafficChurn, Class: 0, At: dur * 43 / 50, Dur: dur * 3 / 25, Mult: 1},
			},
		},
		admission: []enoki.AdmissionClass{
			{Name: "edge", Policy: 0, MaxInflight: 64 * cpus, MaxRetries: 1,
				Backoff: 300 * time.Microsecond},
			{Name: "api", Policy: edgePolicy, MaxInflight: 12 * cpus, MaxRetries: 2,
				Backoff: 150 * time.Microsecond},
			{Name: "antag", Policy: 0},
		},
		enter: 5 * cpus,
		exit:  cpus,
		// The birth rings are allocated once and reused by every set-up:
		// a slot is only read back for the pid that last wrote it.
		sojourns: []*sojourn{
			{born: make([]sojournSlot, sojournRing)},
			{born: make([]sojournSlot, sojournRing)},
		},
	}
}

func (w *edgeFlash) setup(sp spans) {
	t := time.Now()
	w.s = enoki.NewSystem(
		enoki.WithMachine(enoki.Machine80()),
		enoki.WithShards(2),
		enoki.WithAdmission(w.admission...),
		enoki.WithBrownout(1, w.enter, w.exit),
	)
	sp.add("system.new_s", time.Since(t).Seconds())
	t = time.Now()
	w.s.MustAttach(edgePolicy, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewShinjukuScheduler(env, edgePolicy, 0)
	}))
	for i, c := range w.sojourns {
		k := w.s.ShardKernel(i)
		c.Class, c.k = enoki.NewCFS(k), k
		c.hist, c.overwritten = hist{}, 0
		k.RegisterClass(0, c)
	}
	sp.add("system.attach_s", time.Since(t).Seconds())
}

// drive runs the scenario through System.DriveTraffic. A sliced drive
// builds the same per-shard drivers by hand so it can stop every slice.
func (w *edgeFlash) drive(slice time.Duration, lap func()) {
	if slice <= 0 {
		w.rep = w.s.DriveTraffic(w.sc, edgeDrain)
		return
	}
	n := w.s.NumShards()
	ds := make([]*enoki.TrafficDriver, n)
	for i := range ds {
		k := w.s.ShardKernel(i)
		ads := make(map[int]*enoki.Adapter)
		for _, a := range w.s.Adapters() {
			if a.Kernel() == k {
				ads[a.Policy()] = a
			}
		}
		ds[i] = enoki.NewTrafficDriver(k, w.sc, enoki.TrafficDriverConfig{
			Controller:  w.s.AdmissionController(i),
			Adapters:    ads,
			Shard:       i,
			Shards:      n,
			SampleEvery: edgeSampleEvery,
		})
		ds[i].Start()
	}
	for left := w.sc.Duration + edgeDrain; left > 0; left -= slice {
		w.s.Run(min(slice, left))
		lap()
	}
	w.rep = enoki.CollectTraffic(ds...)
}

func (w *edgeFlash) close() { w.s.Close() }

func (w *edgeFlash) finish() outcome {
	r := w.rep
	tot := r.Total
	o := newOutcome()
	o.units = tot.Offered
	o.offered, o.shed = tot.Offered, tot.Shed
	api := r.Classes[1]
	var h hist
	var overwritten uint64
	for _, c := range w.sojourns {
		h.merge(&c.hist)
		overwritten += c.overwritten
	}
	o.p50, o.p99 = h.quantile(0.50), h.quantile(0.99)
	o.note = fmt.Sprintf("api p50 %v p99 %v (traffic report, 12%%-wide buckets)", api.P50, api.P99)
	o.check(len(r.Violations) == 0, fmt.Sprintf("conservation violations: %v", r.Violations))
	o.check(tot.Offered == tot.Admitted+tot.Shed,
		fmt.Sprintf("offered %d != admitted %d + shed %d", tot.Offered, tot.Admitted, tot.Shed))
	o.check(tot.Shed == tot.Retried+tot.Dropped,
		fmt.Sprintf("shed %d != retried %d + dropped %d", tot.Shed, tot.Retried, tot.Dropped))
	o.check(r.Recovered, "a brownout episode did not recover")
	o.check(api.Completed > 0, "no api request completed")
	o.check(overwritten == 0, fmt.Sprintf("%d edge requests outlived their sojourn slot", overwritten))
	o.check(h.n == r.Classes[0].Completed,
		fmt.Sprintf("timed %d edge requests, traffic report completed %d", h.n, r.Classes[0].Completed))

	sk := w.s.Sharded()
	fp := newFNV()
	fp.word(r.Fingerprint())
	fp.word(uint64(o.p50))
	fp.word(uint64(o.p99))
	fp.word(sk.CtxSwitches())
	fp.word(sk.Wakeups())
	o.fingerprint = fp.sum()

	var spawns, msgs uint64
	for ci, c := range r.Classes {
		spawns += c.Requests * uint64(max(1, w.sc.Classes[ci].Fanout))
	}
	for _, a := range w.s.Adapters() {
		msgs += a.Stats().Messages
	}
	c := o.counts
	c["sim.events"] = float64(sk.EventsFired())
	c["sim.epochs"] = float64(sk.Executor().Epochs())
	c["sim.msgs"] = float64(sk.Executor().MsgsSent())
	c["sim.cross_wakes"] = float64(sk.CrossWakes())
	c["kernel.ctx_switches"] = float64(sk.CtxSwitches())
	c["kernel.wakeups"] = float64(sk.Wakeups())
	c["kernel.spawns"] = float64(spawns)
	c["overload.offered"] = float64(tot.Offered)
	c["overload.admitted"] = float64(tot.Admitted)
	c["overload.shed"] = float64(tot.Shed)
	c["overload.retried"] = float64(tot.Retried)
	c["overload.dropped"] = float64(tot.Dropped)
	c["enokic.messages"] = float64(msgs)
	c["traffic.connections"] = float64(r.Connections)
	return o
}

// sojournRing is the number of birth slots a sojourn keeps per shard, a
// power of two: a request is timed as long as fewer than this many tasks
// are spawned on its shard while it lives.
const sojournRing = 1 << 18

type sojournSlot struct {
	pid int
	at  enoki.Time
}

// sojourn wraps the CFS class of one shard and times every edge-tier
// request from spawn to exit in virtual time. It delegates every hook to
// CFS unchanged, so the simulation is the one RegisterCFS would build. The
// traffic report's own latency quantiles come from 12%-wide histogram
// buckets that read the same on every seed; this measures the edge tier's
// requests at 0.1% resolution.
type sojourn struct {
	enoki.Class
	k           *enoki.Kernel
	born        []sojournSlot // indexed by pid mod sojournRing
	hist        hist
	overwritten uint64 // deaths whose birth slot a later spawn reused
}

func (c *sojourn) TaskNew(t *enoki.Task) {
	c.born[t.PID()&(sojournRing-1)] = sojournSlot{t.PID(), c.k.Now()}
	c.Class.TaskNew(t)
}

func (c *sojourn) TaskDead(t *enoki.Task) {
	if t.Name() == "edge" {
		if b := c.born[t.PID()&(sojournRing-1)]; b.pid == t.PID() {
			c.hist.record(c.k.Now().Sub(b.at))
		} else {
			c.overwritten++
		}
	}
	c.Class.TaskDead(t)
}
