package cluster

import (
	"runtime"
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/ktime"
)

// maxAllocsPerJob is the allocation ratchet of the fleet job path: heap
// allocations per completed job over a serial drive, set-up excluded. It
// covers everything one job costs end to end — the start op, the spawn,
// every schedule and sleep of its cycles, the exit and both reports — and
// sits a small margin above the measured 2.57 (the Task, the jobRun, and
// timer-wheel slots outgrowing their slab share), so a new per-job closure,
// boxed message or per-task kernel object fails it.
const maxAllocsPerJob = 3

// TestFleetJobAllocRatchet drives a small serial fleet through the job mix
// of the fleet benchmark (2-4 cycles of 100-300µs, half of them sleeping
// 200µs between cycles) and bounds the heap allocations per completed job.
func TestFleetJobAllocRatchet(t *testing.T) {
	const jobs = 4000
	c := New(Config{Machines: 8, Machine: kernel.Machine8()})
	defer c.Close()
	rng := ktime.NewRand(0xa110c)
	for i := 0; i < jobs; i++ {
		c.Submit(JobSpec{
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.RunUntilIdle()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	if st.Done != jobs {
		t.Fatalf("done %d of %d jobs", st.Done, jobs)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(st.Done)
	t.Logf("%.2f allocs per completed job", per)
	if per > maxAllocsPerJob {
		t.Fatalf("%.2f allocs per completed job, ratchet allows %.2f", per, float64(maxAllocsPerJob))
	}
}
