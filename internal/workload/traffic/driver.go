package traffic

import (
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/overload"
	"enoki/internal/stats"
)

// shardSalt decorrelates per-shard arrival streams drawn from one
// scenario seed.
const shardSalt = 0x9e3779b97f4a7c15

// DriverConfig wires one Driver to its kernel shard.
type DriverConfig struct {
	// Controller is the shard's admission/brownout control plane
	// (required). Each shard owns its own controller; reports merge.
	Controller *overload.Controller
	// Adapters maps scheduler policy id → enokic adapter for brownout
	// delivery. Policies absent from the map (or mapped to nil) still
	// run the hysteresis machine but degrade nothing.
	Adapters map[int]*enokic.Adapter
	// Shard and Shards partition the scenario's regions: this driver
	// generates arrivals for regions r with r % Shards == Shard.
	// Shards 0 means a single unsharded driver owning every region.
	Shard, Shards int
	// SampleEvery is the brownout sampler period; 0 disables sampling.
	SampleEvery time.Duration
}

type classStats struct {
	requests  uint64 // admitted and spawned
	completed uint64
	latSum    uint64
	all       stats.LogHist
	flash     stats.LogHist // admissions that arrived inside a flash window
	antagDone uint64        // completions of arrivals inside antagonist windows
}

// Driver generates one scenario partition open-loop against one kernel.
// Construct with NewDriver, call Start before running the engine, and
// merge results with Collect once the rig has drained.
type Driver struct {
	sc      Scenario
	k       *kernel.Kernel
	ctl     *overload.Controller
	ads     map[int]*enokic.Adapter
	rng     *ktime.Rand
	regions []int
	sample  time.Duration

	conns uint64
	cs    []classStats
	// free recycles request records of exited tasks; the driver is their
	// only owner, so a steady-state spawn allocates no record.
	free []*request
}

// request is the kernel Behavior and ExitObserver of one service task:
// one burst of work, then exit. The tasks of one admitted request share a
// parent record that keeps the request's books — a plain request is its
// own parent; a fanned-out request's parent is a record of its own that
// counts the backends still running and completes the request when the
// last one exits.
type request struct {
	d         *Driver
	parent    *request
	work      time.Duration
	ci        int
	arrival   time.Duration
	remaining int // parent only: tasks still running
}

// Next implements kernel.Behavior.
func (r *request) Next(*kernel.Kernel, *kernel.Task) kernel.Action {
	return kernel.Action{Run: r.work, Op: kernel.OpExit}
}

// TaskExited implements kernel.ExitObserver.
func (r *request) TaskExited(*kernel.Kernel, *kernel.Task) {
	d, p := r.d, r.parent
	if r != p {
		d.release(r)
	}
	if p.remaining--; p.remaining == 0 {
		d.complete(p.ci, p.arrival)
		d.release(p)
	}
}

// record returns a recycled or new request record.
func (d *Driver) record() *request {
	if n := len(d.free); n > 0 {
		r := d.free[n-1]
		d.free = d.free[:n-1]
		return r
	}
	return &request{d: d}
}

func (d *Driver) release(r *request) {
	r.parent = nil
	d.free = append(d.free, r)
}

// NewDriver builds a driver for its shard's slice of the scenario.
func NewDriver(k *kernel.Kernel, sc Scenario, dc DriverConfig) *Driver {
	if dc.Controller == nil {
		panic("traffic: NewDriver without a Controller")
	}
	sc = sc.WithDefaults()
	shards := dc.Shards
	if shards <= 0 {
		shards = 1
	}
	d := &Driver{
		sc:     sc,
		k:      k,
		ctl:    dc.Controller,
		ads:    dc.Adapters,
		rng:    ktime.NewRand(sc.Seed ^ (uint64(dc.Shard)+1)*shardSalt),
		sample: dc.SampleEvery,
		cs:     make([]classStats, len(sc.Classes)),
	}
	for ri := range sc.Regions {
		if ri%shards == dc.Shard%shards {
			d.regions = append(d.regions, ri)
		}
	}
	return d
}

// Start arms the arrival tick loop and the brownout sampler on the
// driver's engine. Call once, before running.
func (d *Driver) Start() {
	if len(d.regions) > 0 {
		d.k.Engine().Post(0, d.tick)
	}
	if d.sample > 0 {
		d.k.Engine().Post(d.sample, d.brownoutSample)
	}
}

// Connections returns how many connections this driver has opened.
func (d *Driver) Connections() uint64 { return d.conns }

// Controller returns the shard's overload controller.
func (d *Driver) Controller() *overload.Controller { return d.ctl }

func (d *Driver) now() time.Duration { return time.Duration(d.k.Now()) }

// tick generates one arrival quantum for every owned region × class and
// re-arms itself until the scenario's Duration.
func (d *Driver) tick() {
	now := d.now()
	if now >= d.sc.Duration {
		return
	}
	for _, ri := range d.regions {
		for ci := range d.sc.Classes {
			d.arrivals(ci, ri, now)
		}
	}
	d.k.Engine().Post(d.sc.Tick, d.tick)
}

// arrivals opens this tick's connections for one region × class pair.
// The expected count is rate × tick; the fractional remainder becomes
// one extra connection by a seeded Bernoulli draw, so the long-run rate
// is exact without per-connection Poisson machinery.
func (d *Driver) arrivals(ci, ri int, now time.Duration) {
	c := &d.sc.Classes[ci]
	r := &d.sc.Regions[ri]
	rate := d.sc.Rate * c.Weight * r.Share * d.sc.Factor(ci, now, r.Offset)
	if rate <= 0 {
		return
	}
	exp := rate * d.sc.Tick.Seconds()
	n := int(exp)
	if d.rng.Bernoulli(exp - float64(n)) {
		n++
	}
	churn := d.sc.churnAt(ci, now)
	for i := 0; i < n; i++ {
		d.conns++
		reqs := c.ReqPerConn
		if churn {
			reqs = 1
		}
		d.offer(ci, 0, now)
		for j := 1; j < reqs; j++ {
			at := now + time.Duration(j)*c.Think
			ci := ci
			d.k.Engine().PostAt(ktime.Time(at), func() { d.offer(ci, 0, at) })
		}
	}
}

// offer runs one request attempt through admission. Shed requests cost
// no kernel events: a Retry re-offers after backoff, a Drop vanishes
// (the controller keeps the books either way).
func (d *Driver) offer(ci, attempt int, arrival time.Duration) {
	ac := d.sc.Classes[ci].Admission
	switch d.ctl.Admit(ac, attempt) {
	case overload.Admitted:
		d.spawn(ci, arrival)
	case overload.Retry:
		d.k.Engine().Post(d.ctl.Backoff(ac, attempt), func() {
			d.offer(ci, attempt+1, arrival)
		})
	case overload.Dropped:
	}
}

// spawn runs one admitted request: a single service task, or Fanout
// backend subrequests that complete the request when the last one exits
// (the nginx model — one frontend request fans to upstream workers and
// responds at the slowest one).
func (d *Driver) spawn(ci int, arrival time.Duration) {
	c := &d.sc.Classes[ci]
	d.cs[ci].requests++
	p := d.record()
	p.parent, p.ci, p.arrival = p, ci, arrival
	if c.Fanout <= 1 {
		p.remaining, p.work = 1, d.rng.ExpDuration(c.Work)
		d.k.Spawn(c.Name, c.Policy, p)
		return
	}
	p.remaining = c.Fanout
	share := c.Work / time.Duration(c.Fanout)
	for i := 0; i < c.Fanout; i++ {
		r := d.record()
		r.parent, r.work = p, d.rng.ExpDuration(share)
		d.k.Spawn(c.Name, c.Policy, r)
	}
}

// complete closes one admitted request's books and records its latency.
func (d *Driver) complete(ci int, arrival time.Duration) {
	d.ctl.Done(d.sc.Classes[ci].Admission)
	lat := d.now() - arrival
	cs := &d.cs[ci]
	cs.completed++
	cs.latSum += uint64(lat)
	cs.all.Record(lat)
	if d.sc.inShape(Flash, ci, arrival) {
		cs.flash.Record(lat)
	}
	if d.sc.antagonistActive(arrival) {
		cs.antagDone++
	}
}

// brownoutSample feeds per-admission-class queue depths into the
// hysteresis machine and delivers state changes to the class's module.
// It re-arms itself until arrivals have stopped and every class has
// recovered, so a drained rig goes idle.
func (d *Driver) brownoutSample() {
	now := d.k.Now()
	active := false
	for ac := 0; ac < d.ctl.NumClasses(); ac++ {
		cc := d.ctl.Class(ac)
		if cc.EnterDepth <= 0 {
			continue
		}
		depth := d.k.ClassDepth(cc.Policy)
		if d.ctl.Sample(ac, depth, int64(now)) {
			if a := d.ads[cc.Policy]; a != nil {
				a.SetDegraded(d.ctl.Degraded(ac))
			}
		}
		if d.ctl.Degraded(ac) {
			active = true
		}
	}
	if time.Duration(now) < d.sc.Duration || active {
		d.k.Engine().Post(d.sample, d.brownoutSample)
	}
}
