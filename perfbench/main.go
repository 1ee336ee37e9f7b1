// Command perfbench is the repository's layered host-cost benchmark. It
// drives one of three workloads through the public enoki API for a fixed
// wall-clock budget, checks every run's outputs, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON line.
//
//	go run . -workload fleet-batch -seed 1 -seconds 20 -trace 0
//
// README.md says why each workload was chosen, which layers it loads, and
// how each per-layer metric maps onto the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runner is one workload. Its inputs are generated from the seed when the
// runner is made; every iteration of a run builds a fresh simulation from
// those same inputs.
type runner interface {
	// setup builds the simulation and loads the inputs into it.
	setup(sp spans)
	// drive runs the simulation to completion. With slice > 0 it advances
	// in fixed virtual slices and calls lap after each one.
	drive(slice time.Duration, lap func())
	// finish checks the outputs and fingerprints the final simulated
	// state.
	finish() outcome
	// close releases the simulation.
	close()
}

// workload names a runner, what one of its units is, and its traced
// slice length.
type workload struct {
	name  string
	unit  string        // what units_per_s counts
	slice time.Duration // virtual slice of a traced drive
	make  func(seed uint64) runner
}

var workloads = []workload{
	{"fleet-batch", "completed job", 2 * time.Millisecond, func(seed uint64) runner {
		return newFleetBatch(seed, 200, 200_000)
	}},
	{"edge-flash", "admission offer", 5 * time.Millisecond, func(seed uint64) runner {
		return newEdgeFlash(seed, 1)
	}},
	{"wake-verified", "task wakeup", time.Millisecond, func(seed uint64) runner {
		return newWakeVerified(seed, wakeShape{groups: 24, workers: 4, rounds: 400, every: 4})
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one iteration produced: its unit count, virtual-time
// latencies, correctness verdicts, fingerprint and per-layer counts.
type outcome struct {
	units         uint64
	p50, p99      time.Duration // virtual
	offered, shed uint64        // admission offers and sheds (0 without admission)
	checks        int
	problems      []string
	fingerprint   uint64
	counts        map[string]float64
	note          string // workload-specific detail for the report lines
}

func newOutcome() outcome { return outcome{counts: make(map[string]float64)} }

// check records one correctness check and returns whether it held.
func (o *outcome) check(ok bool, problem string) bool {
	o.checks++
	if !ok {
		o.problems = append(o.problems, problem)
	}
	return ok
}

// spans collects the wall time of the benchmark's own calls into the
// program, by name.
type spans map[string][]float64

func (sp spans) add(name string, v float64) { sp[name] = append(sp[name], v) }

// fnv is an FNV-1a 64-bit hash over little-endian words; start it from
// newFNV.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) word(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

func (h fnv) sum() uint64 { return uint64(h) }

// mix derives an independent stream seed from the benchmark seed.
func mix(seed, stream uint64) uint64 {
	z := seed ^ stream*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// minIters is the fewest iterations a run makes, however long they take.
const minIters = 3

// A run times extra set-ups before its iterations, each torn down
// undriven, so that setup_s is the median of many samples even when a run
// makes few iterations: at least setupMin, then more up to setupMax while
// they have taken less than setupBudget.
const (
	setupMin    = 8
	setupMax    = 48
	setupBudget = 2 * time.Second
)

// iteration is one measured build-and-drive.
type iteration struct {
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration // process user+system time during the drive
	mallocs uint64
	bytes   uint64
	gcs     uint32
	traced  bool
	warmup  bool // the untimed first drive: checked, never timed
	out     outcome
}

// measure runs iterations of w until the drives have used seconds of wall
// time. With traced set, iterations 0, 2, 4, ... drive in virtual slices
// under the CPU profiler and the others drive untraced, so the two rates
// come from the same process and their ratio is the tracing overhead.
func measure(w workload, seed uint64, seconds float64, traced bool, prof *profile) (its []iteration, setups, slices []float64, sp spans, err error) {
	r := w.make(seed)
	sp = make(spans)
	var spent time.Duration
	for i, t := 0, time.Now(); i < setupMax && (i < setupMin || time.Since(t) < setupBudget); i++ {
		runtime.GC()
		t0 := time.Now()
		r.setup(sp)
		setups = append(setups, time.Since(t0).Seconds())
		r.close()
	}
	// One untimed drive first, so that the heap has grown and lazy
	// runtime set-up is done before any drive is timed. Its outcome still
	// has to pass the checks and match the fingerprint.
	r.setup(sp)
	r.drive(0, func() {})
	warm := r.finish()
	r.close()
	for len(its) < minIters || spent.Seconds() < seconds {
		tr := traced && len(its)%2 == 0
		runtime.GC()
		t0 := time.Now()
		r.setup(sp)
		it := iteration{setup: time.Since(t0), traced: tr}

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		var slice time.Duration
		lap := func() {}
		if tr {
			slice = w.slice
			last := time.Now()
			lap = func() {
				now := time.Now()
				slices = append(slices, float64(now.Sub(last))/float64(time.Millisecond))
				last = now
			}
			if err := prof.start(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		t1 := time.Now()
		r.drive(slice, lap)
		it.wall = time.Since(t1)
		if tr {
			if err := prof.stop(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		it.cpu = cpuTime() - c0
		runtime.ReadMemStats(&m1)
		it.mallocs = m1.Mallocs - m0.Mallocs
		it.bytes = m1.TotalAlloc - m0.TotalAlloc
		it.gcs = m1.NumGC - m0.NumGC
		it.out = r.finish()
		r.close()
		its = append(its, it)
		setups = append(setups, it.setup.Seconds())
		spent += it.wall
	}
	its = append(its, iteration{out: warm, warmup: true})
	return its, setups, slices, sp, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// pick returns f over the iterations that match traced.
func pick(its []iteration, traced bool, f func(iteration) float64) []float64 {
	var xs []float64
	for _, it := range its {
		if !it.warmup && it.traced == traced {
			xs = append(xs, f(it))
		}
	}
	return xs
}

func rate(it iteration) float64 { return float64(it.out.units) / it.wall.Seconds() }

// verify checks every iteration's outcome and that all of them, traced or
// not, reached the same final simulated state. It returns the number of
// checks attempted and the problems found.
func verify(its []iteration) (uint64, []string) {
	var attempted uint64
	var problems []string
	for i, it := range its {
		attempted += uint64(it.out.checks) + 1
		for _, p := range it.out.problems {
			problems = append(problems, fmt.Sprintf("iteration %d: %s", i, p))
		}
		if it.out.fingerprint != its[0].out.fingerprint {
			problems = append(problems, fmt.Sprintf("iteration %d (traced=%v): fingerprint %016x != %016x",
				i, it.traced, it.out.fingerprint, its[0].out.fingerprint))
		}
		if it.out.units == 0 {
			problems = append(problems, fmt.Sprintf("iteration %d: no unit of work completed", i))
		}
	}
	return attempted, problems
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-batch, edge-flash or wake-verified")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds of driving to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	commit := flag.String("commit", "unknown", "commit or source digest the binary was built from, recorded with the result")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s workload=%s seed=%d seconds=%v trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*commit, w.name, *seed, *seconds, *trace)

	prof := &profile{}
	its, setups, slices, sp, err := measure(w, *seed, *seconds, *trace == 1, prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	attempted, problems := verify(its)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	first := its[0].out
	fmt.Printf("# %s: %d iterations, %d units (%s) each, fingerprint %016x\n",
		w.name, len(its), first.units, w.unit, first.fingerprint)
	if first.note != "" {
		fmt.Printf("# %s\n", first.note)
	}
	fmt.Printf("# rates (1/s):")
	for _, it := range its {
		if it.warmup {
			continue
		}
		mark := ""
		if it.traced {
			mark = "t"
		}
		fmt.Printf(" %.0f%s", rate(it), mark)
	}
	fmt.Println()

	var metrics map[string]metric
	if *trace == 1 {
		var all map[string]metric
		metrics, all = layerMetrics(its, slices, sp, prof)
		fmt.Print(layerLines(all, prof))
	} else {
		metrics = endToEnd(its, setups)
		fmt.Print(metricLines(metrics))
		// These two can be 0, which a gated metric may not be, so they are
		// report lines only: the JSON carries the first as failed ÷
		// attempted and the second as 1 − sim_admitted_frac.
		fmt.Print(metricLines(map[string]metric{
			"error_frac":       {float64(len(problems)) / float64(attempted), "frac"},
			"sim_refused_frac": {1 - metrics["sim_admitted_frac"].Value, "frac"},
		}))
	}
	res := result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    uint64(len(problems)),
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// endToEnd assembles the gated end-to-end metrics from untraced
// iterations and every timed set-up.
func endToEnd(its []iteration, setups []float64) map[string]metric {
	perUnit := func(f func(iteration) uint64) func(iteration) float64 {
		return func(it iteration) float64 { return float64(f(it)) / float64(it.out.units) }
	}
	first := its[0].out
	admitted := 1.0
	if first.offered > 0 {
		admitted = 1 - float64(first.shed)/float64(first.offered)
	}
	return map[string]metric{
		"units_per_s":       {median(pick(its, false, rate)), "1/s"},
		"setup_s":           {median(setups), "s"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
		"allocs_per_unit":   {median(pick(its, false, perUnit(func(it iteration) uint64 { return it.mallocs }))), "count"},
		"bytes_per_unit":    {median(pick(its, false, perUnit(func(it iteration) uint64 { return it.bytes }))), "B"},
		"sim_p50_us":        {float64(first.p50) / float64(time.Microsecond), "us"},
		"sim_p99_us":        {float64(first.p99) / float64(time.Microsecond), "us"},
		"sim_admitted_frac": {admitted, "frac"},
	}
}
