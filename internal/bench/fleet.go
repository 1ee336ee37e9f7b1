// Fleet-scale benchmark: the headline cluster-simulation artifact. One
// thousand simulated machines — each a full sharded kernel stack — run a
// million jobs under the cluster control plane, twice: once with the
// fleet driven serially, once on worker goroutines. The run includes a
// machine failure mid-flight, so the artifact's verdicts cover the whole
// story: jobs complete, placement stays fast, failover loses nothing, and
// the two drives produce identical per-machine simulations (fingerprinted
// per machine and compared, the cheap form of the byte-identical record-log
// gate the tests enforce).
package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
)

// FleetSLO is one pass/fail verdict of the fleet run.
type FleetSLO struct {
	Name     string `json:"name"`
	Target   string `json:"target"`
	Measured string `json:"measured"`
	Pass     bool   `json:"pass"`
}

// FleetResult is the fleet section of BENCH_cluster.json.
type FleetResult struct {
	Machines    int `json:"machines"`
	MachineCPUs int `json:"machine_cpus"`
	Shards      int `json:"shards_per_machine"`
	Jobs        int `json:"jobs"`

	VirtualMS      float64 `json:"virtual_ms"`
	WallSerialMS   float64 `json:"wall_serial_ms"`
	WallParallelMS float64 `json:"wall_parallel_ms"`

	Done         int     `json:"done"`
	Lost         int     `json:"lost"`
	Migrations   int     `json:"migrations"`
	TasksSpawned uint64  `json:"tasks_spawned"`
	EventsFired  uint64  `json:"events_fired"`
	Epochs       uint64  `json:"fleet_epochs"`
	MsgsSent     uint64  `json:"msgs_sent"`
	PlaceP50US   float64 `json:"place_p50_us"`
	PlaceP99US   float64 `json:"place_p99_us"`
	E2EP50US     float64 `json:"e2e_p50_us"`
	E2EP99US     float64 `json:"e2e_p99_us"`

	FingerprintSerial   string     `json:"fingerprint_serial"`
	FingerprintParallel string     `json:"fingerprint_parallel"`
	GOMAXPROCS          int        `json:"gomaxprocs"`
	SLOs                []FleetSLO `json:"slos"`
	Pass                bool       `json:"pass"`
}

// fleetDrive runs one seeded fleet workload to completion and returns the
// cluster stats, the per-machine fingerprint, the final virtual time, and
// the wall-clock cost. killAt is when the sacrificial machine fails; it
// must land while jobs are still in flight for the failover verdict to mean
// anything.
func fleetDrive(machines int, m kernel.Machine, jobs int, killAt time.Duration, parallel bool) (cluster.Stats, uint64, ktime.Time, time.Duration) {
	cl := cluster.New(cluster.Config{
		Machines: machines,
		Machine:  m,
		Parallel: parallel,
		Placer:   cluster.LeastLoaded{},
	})
	defer cl.Close()
	rng := ktime.NewRand(0xf1ee7b47)
	for i := 0; i < jobs; i++ {
		cl.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		})
	}
	// One machine dies mid-run; the detector fires and its jobs restart
	// elsewhere from their checkpoints.
	cl.FailMachine(machines/3, killAt)
	start := time.Now()
	cl.RunUntilIdle()
	wall := time.Since(start)

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < cl.NumMachines(); i++ {
		mc := cl.Machine(i)
		sk := mc.Sharded()
		word(mc.TasksSpawned())
		word(sk.CtxSwitches())
		word(sk.EventsFired())
		word(sk.Wakeups())
		word(uint64(sk.Now()))
	}
	for i := 0; i < cl.NumJobs(); i++ {
		j := cl.Job(i)
		word(uint64(j.State))
		word(uint64(int64(j.Machine)))
		word(uint64(j.Restarts)<<32 | uint64(j.Migrations))
		word(uint64(j.DoneAt))
	}
	return cl.Stats(), h.Sum64(), cl.Now(), wall
}

// fleetScale sizes the fleet for a per-machine template: the 8-CPU headline
// is 1,000 machines and one million jobs (the handoff fast path in the
// fleet executor is what makes that tractable — see
// sim.Executor.SendHandoff); bigger machines trade fleet width for
// per-machine depth so every variant stays tractable.
func fleetScale(m kernel.Machine) (machines, jobs int) {
	switch {
	case m.NumCPUs >= 1000:
		return 12, 6000
	case m.NumCPUs >= 80:
		return 120, 30000
	default:
		return 1000, 1000000
	}
}

// RunFleet runs the fleet benchmark on the given per-machine template,
// serial and parallel, and assembles the verdicts.
func RunFleet(m kernel.Machine) *FleetResult {
	machines, jobs := fleetScale(m)
	serial, fpSerial, virt, wallSerial := fleetDrive(machines, m, jobs, 5*time.Millisecond, false)
	_, fpPar, _, wallPar := fleetDrive(machines, m, jobs, 5*time.Millisecond, true)

	r := &FleetResult{
		Machines: machines, MachineCPUs: m.NumCPUs, Shards: m.NumNodes, Jobs: jobs,
		VirtualMS:      float64(virt) / float64(time.Millisecond),
		WallSerialMS:   float64(wallSerial) / float64(time.Millisecond),
		WallParallelMS: float64(wallPar) / float64(time.Millisecond),
		Done:           serial.Done, Lost: serial.Lost, Migrations: serial.Migrations,
		TasksSpawned: serial.TasksSpawned, EventsFired: serial.EventsFired,
		Epochs: serial.Epochs, MsgsSent: serial.MsgsSent,
		PlaceP50US:          float64(serial.PlaceP50) / float64(time.Microsecond),
		PlaceP99US:          float64(serial.PlaceP99) / float64(time.Microsecond),
		E2EP50US:            float64(serial.E2EP50) / float64(time.Microsecond),
		E2EP99US:            float64(serial.E2EP99) / float64(time.Microsecond),
		FingerprintSerial:   fmt.Sprintf("%016x", fpSerial),
		FingerprintParallel: fmt.Sprintf("%016x", fpPar),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
	}
	slo := func(name, target, measured string, pass bool) {
		r.SLOs = append(r.SLOs, FleetSLO{Name: name, Target: target, Measured: measured, Pass: pass})
	}
	ratio := float64(serial.Done) / float64(jobs)
	slo("completion", "every job completes despite the machine failure",
		fmt.Sprintf("%d/%d (%.4f)", serial.Done, jobs, ratio), serial.Done == jobs)
	slo("placement_p99", "p99 submit-to-running under 5ms",
		fmt.Sprintf("%.0fµs", r.PlaceP99US), serial.PlaceP99 < 5*time.Millisecond)
	slo("failover", "the killed machine's placements restart elsewhere (lost > 0, none stranded)",
		fmt.Sprintf("%d lost, %d done", serial.Lost, serial.Done),
		serial.Lost > 0 && serial.Done == jobs)
	slo("determinism", "serial and parallel fleet drives fingerprint identically",
		fmt.Sprintf("%016x vs %016x", fpSerial, fpPar), fpSerial == fpPar)
	r.Pass = true
	for _, s := range r.SLOs {
		r.Pass = r.Pass && s.Pass
	}
	return r
}

// WriteFleetJSON runs the cluster sweep and the fleet benchmark and writes
// the combined BENCH_cluster.json document to path.
func WriteFleetJSON(path string, m kernel.Machine) (*ClusterOutput, error) {
	out := RunCluster()
	out.Fleet = RunFleet(m)
	return writeClusterDoc(path, out)
}
