package main

import (
	"reflect"
	"testing"
	"time"

	"enoki"
)

// tiny are the workloads at smoke-test size: the same code paths and
// correctness checks as the benchmark, at a few milliseconds of virtual
// time.
var tiny = []struct {
	name string
	make func(seed uint64) runner
}{
	{"fleet-batch", func(seed uint64) runner { return newFleetBatch(seed, 6, 600) }},
	{"edge-flash", func(seed uint64) runner { return newEdgeFlash(seed, 0.05) }},
	{"wake-verified", func(seed uint64) runner {
		return newWakeVerified(seed, wakeShape{groups: 4, workers: 3, rounds: 20, every: 2})
	}},
}

// inputs returns the generated inputs of a runner, before any set-up.
func inputs(r runner) any {
	switch w := r.(type) {
	case *fleetBatch:
		return []any{w.machines, w.jobs, w.kill, w.killAt}
	case *edgeFlash:
		return []any{w.sc, w.admission, w.enter, w.exit}
	case *wakeVerified:
		return []any{w.shape, w.specs}
	}
	panic("unknown runner")
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := inputs(w.make(7)), inputs(w.make(7))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if c := inputs(w.make(8)); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// TestWakeGeneratorZeroAlloc steps every behaviour of the wake workload
// through whole rounds, outside a kernel, and requires that it allocate
// nothing.
func TestWakeGeneratorZeroAlloc(t *testing.T) {
	const workers = 4
	g := &localGroup{rounds: 1 << 30, burst: 50 * time.Microsecond, msgWork: 10 * time.Microsecond,
		pause: 200 * time.Microsecond, rng: enoki.NewRand(1)}
	g.allIn = g.allResponded
	g.workers = make([]*enoki.Task, workers)
	g.msgOnly = make([]*enoki.Task, 1)
	msg := &localMsg{g: g}
	ws := make([]*localWorker, workers)
	for i := range ws {
		ws[i] = &localWorker{g: g}
		ws[i].recheck = ws[i].newRound
	}
	wakes := 0
	p := &remotePair{rounds: 1 << 30, burst: 50 * time.Microsecond, msgWork: 10 * time.Microsecond,
		pause: 200 * time.Microsecond, rng: enoki.NewRand(2),
		wake: func(int, int, *enoki.Task) { wakes++ }, a: 0, b: 1}
	pm, pw := (*pairMsg)(p), (*pairWorker)(p)

	round := func() {
		msg.Next(nil, nil) // pause, or dispatch
		msg.Next(nil, nil)
		for _, w := range ws {
			w.Next(nil, nil) // think
			w.Next(nil, nil) // respond
			w.Next(nil, nil) // recheck-blocked
		}
		for i := 0; i < 4; i++ {
			pm.Next(nil, nil)
			pw.Next(nil, nil)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("wake generator allocates %.1f times per round, want 0", allocs)
	}
	if g.round == 0 || wakes == 0 {
		t.Fatalf("generator made no progress: %d rounds, %d remote wakes", g.round, wakes)
	}
}

// TestSmoke runs each workload at tiny size, untraced and then sliced, and
// requires every correctness check to pass and both drives to reach the
// same final state.
func TestSmoke(t *testing.T) {
	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			r := w.make(3)
			var fps []uint64
			for _, slice := range []time.Duration{0, 500 * time.Microsecond} {
				r.setup(make(spans))
				laps := 0
				r.drive(slice, func() { laps++ })
				o := r.finish()
				r.close()
				if len(o.problems) > 0 {
					t.Fatalf("slice %v: checks failed: %v", slice, o.problems)
				}
				if o.units == 0 || o.checks == 0 {
					t.Fatalf("slice %v: %d units, %d checks", slice, o.units, o.checks)
				}
				if slice > 0 && laps == 0 {
					t.Fatalf("sliced drive never called lap")
				}
				fps = append(fps, o.fingerprint)
			}
			if fps[0] != fps[1] {
				t.Fatalf("untraced fingerprint %016x != sliced %016x", fps[0], fps[1])
			}
		})
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.quantile(c.q)
		if d := got - c.want; d > c.want/100 || d < -c.want/100 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"enoki/internal/sim.(*Engine).fire":                 "sim",
		"enoki/internal/rbtree.(*Tree).Insert":              "kernel",
		"enoki/internal/workload/traffic.(*Driver).arrive":  "traffic",
		"enoki/internal/sched/shinjuku.(*Scheduler).Pick":   "sched",
		"enoki/internal/core.(*Queue).Push":                 "enokic",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"main.(*localWorker).Next":                          "bench",
		"enoki.NewSystem":                                   "other",
		"enoki/internal/kernel.(*Kernel).schedule.func1":    "kernel",
		"enoki/internal/overload.(*Controller).Admit":       "overload",
		"enoki/internal/vpol.(*Class).exec":                 "vpol",
		"enoki/internal/cluster.(*jobScheduler).reconcile":  "cluster",
		"enoki/internal/enokic.(*Adapter).PickNext":         "enokic",
		"sync.(*WaitGroup).Wait":                            "runtime",
		"enoki/internal/stats.(*LogHist).Record":            "other",
		"type:.eq.enoki/internal/kernel.CPUMask":            "other",
		"enoki/internal/kernel.(*CFS).PickNext":             "kernel",
		"enoki/internal/sim.(*Sharded).run.func1":           "sim",
		"enoki/internal/cluster.(*Machine).applyStart.func": "cluster",
	} {
		if got := layerOf(pkgOf(fn)); got != want {
			t.Errorf("layerOf(pkgOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

// spin burns CPU in this package, so its samples belong to the bench
// layer.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestProfileFold runs a real CPU profile through the protobuf reader and
// the layer buckets.
func TestProfileFold(t *testing.T) {
	var p profile
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.samples == 0 || p.totalNS == 0 {
		t.Fatalf("profile folded no samples")
	}
	if frac := float64(p.selfNS["bench"]) / float64(p.totalNS); frac < 0.5 {
		t.Fatalf("bench layer holds %.2f of a profile spent spinning in this package", frac)
	}
}
