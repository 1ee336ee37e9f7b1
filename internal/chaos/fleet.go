// Fleet chaos: the machine-kill plane. Where the single-kernel campaigns
// sabotage one machine from the inside (module panics, IPI loss, timer
// skew), the fleet plane sabotages the cluster from the outside: whole
// machines fail-stop mid-run and the control plane must detect each death,
// requeue the lost placements, and finish every job on the survivors. The
// same discipline applies as everywhere else in this package — every kill
// is a seeded draw over virtual time, so a failing fleet run replays
// bit-for-bit from its one-line spec string (`f1:<class>:<seed>:<mask>`),
// and the serial and worker-goroutine fleet drives of one spec must agree
// byte for byte.

package chaos

import (
	"bytes"
	"fmt"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// Fleet run shape: small enough to replay in a test, big enough that
// kills land while jobs are in flight and the survivors still have the
// capacity to finish everything.
const (
	fleetMachines = 10
	fleetJobs     = 60
	fleetBudget   = 60 * time.Millisecond
	// Fixed in the cluster config (not left to defaults) because
	// the oracle reasons about them: a done report sent just before a kill
	// is still in flight for fleetNetLatency, and the control plane keeps
	// accepting reports for a dead machine until detection fires.
	fleetNetLatency  = 50 * time.Microsecond
	fleetDetectDelay = 500 * time.Microsecond
)

// killSalt separates the kill-schedule stream from the workload stream that
// shares the campaign seed.
const killSalt uint64 = 0xd6e8feb86659fd93

// FleetEvent is one machine-kill fault: machine Machine fail-stops at
// virtual time At (ns). The fleet drops its in-flight messages, the control
// plane notices after its detection delay, and every placement it held is
// requeued.
type FleetEvent struct {
	Machine int
	At      int64
}

func (e FleetEvent) String() string {
	return fmt.Sprintf("%v[m%d@%v]", PlaneMachineKill, e.Machine, time.Duration(e.At))
}

// fleetEvents draws the f1: plane's kills: one to three distinct victims
// (never a majority, so the survivors always have the capacity to finish
// the workload) with kill times early enough that placements are still in
// flight.
func fleetEvents(seed uint64, _ string) []FleetEvent {
	rng := ktime.NewRand(seed ^ killSalt)
	n := 1 + rng.Intn(3)
	used := make(map[int]bool, n)
	evs := make([]FleetEvent, 0, n)
	for len(evs) < n {
		m := rng.Intn(fleetMachines)
		if used[m] {
			continue
		}
		used[m] = true
		evs = append(evs, FleetEvent{
			Machine: m,
			At:      (int64(1) + int64(rng.Intn(4))) * int64(time.Millisecond),
		})
	}
	return evs
}

// FleetOutcome is one fleet run's observable result plus the oracle's
// verdict. Logs holds the raw per-(machine, shard) record bytes; a serial
// and a parallel drive of the same spec must match field for field, Logs
// byte for byte.
type FleetOutcome struct {
	Schedule Schedule[FleetEvent]
	Stats    cluster.Stats
	Jobs     []cluster.Job
	Logs     [][][]byte
	// Violations is the oracle's verdict: empty means the cluster upheld
	// every invariant under the kill plan.
	Violations []string
}

// Failed reports whether the oracle found any invariant breach.
func (r FleetOutcome) Failed() bool { return len(r.Violations) > 0 }

func (r FleetOutcome) report() (summary, violations []string) {
	return []string{fmt.Sprintf("jobs %d/%d done, %d placements lost, %d/%d machines alive",
		r.Stats.Done, r.Stats.Submitted, r.Stats.Lost, r.Stats.MachinesAlive, fleetMachines)}, r.Violations
}

// recordedCluster is the ten-machine cluster the f1: and r1: planes both
// drive, with a record channel on every module.
type recordedCluster struct {
	*cluster.Cluster
	bufs [][]*bytes.Buffer
	recs [][]*record.Recorder
}

// newRecordedCluster builds the cluster for class c: every machine loads
// c's module (when it has one) under modCfg above CFS on each shard, each
// module recording, and a job mix drawn from seed is submitted up front.
// detect is the control plane's failure-detection delay.
func newRecordedCluster(c conformance.Case, seed uint64, parallel bool, detect time.Duration, modCfg enokic.Config) *recordedCluster {
	rc := &recordedCluster{
		bufs: make([][]*bytes.Buffer, fleetMachines),
		recs: make([][]*record.Recorder, fleetMachines),
	}
	policy := conformance.PolicyCFS
	if c.NewModule != nil {
		policy = conformance.PolicyTest
	}
	rc.Cluster = cluster.New(cluster.Config{
		Machines:        fleetMachines,
		Machine:         kernel.Machine8(),
		Parallel:        parallel,
		Policy:          policy,
		Placer:          &cluster.Pack{PerCPU: 2},
		RebalanceSpread: 3,
		NetLatency:      fleetNetLatency,
		DetectDelay:     detect,
		SetupModules: func(mi int, sk *kernel.ShardedKernel) []*enokic.Adapter {
			rc.bufs[mi] = make([]*bytes.Buffer, sk.NumShards())
			rc.recs[mi] = make([]*record.Recorder, sk.NumShards())
			ads := make([]*enokic.Adapter, sk.NumShards())
			for sh := range ads {
				k := sk.ShardKernel(sh)
				if c.NewModule != nil {
					ads[sh] = enokic.Load(k, conformance.PolicyTest, modCfg,
						func(env core.Env) core.Scheduler { return c.NewModule(env, k.NumCPUs()) })
				}
				k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))
				if ads[sh] != nil {
					rc.bufs[mi][sh] = &bytes.Buffer{}
					rc.recs[mi][sh] = record.New(k, rc.bufs[mi][sh], conformance.PolicyCFS, record.DefaultCosts())
					ads[sh].SetRecorder(rc.recs[mi][sh])
				}
			}
			return ads
		},
	})
	rng := ktime.NewRand(seed ^ workloadSalt)
	for i := 0; i < fleetJobs; i++ {
		rc.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(5),
			Run:    time.Duration(80+rng.Intn(250)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 150 * time.Microsecond,
		})
	}
	return rc
}

// finish closes the recorders after the run and collects the per-(machine,
// shard) record bytes and every job.
func (rc *recordedCluster) finish() (logs [][][]byte, jobs []cluster.Job) {
	logs = make([][][]byte, fleetMachines)
	for mi := range logs {
		logs[mi] = make([][]byte, len(rc.bufs[mi]))
		for sh, rec := range rc.recs[mi] {
			if rec != nil {
				rec.Close()
				logs[mi][sh] = rc.bufs[mi][sh].Bytes()
			}
		}
	}
	for i := 0; i < rc.NumJobs(); i++ {
		jobs = append(jobs, rc.Job(i))
	}
	return logs, jobs
}

// logViolations reports every record log the run left undecodable: the
// logs must survive whatever the faults did to the fleet.
func logViolations(logs [][][]byte) []string {
	var v []string
	for mi, perShard := range logs {
		for sh, l := range perShard {
			if l == nil {
				continue
			}
			if _, err := record.Load(bytes.NewReader(l)); err != nil {
				v = append(v, fmt.Sprintf("machine %d shard %d record log not decodable: %v", mi, sh, err))
			}
		}
	}
	return v
}

// RunFleet runs one kill schedule against the recorded ten-machine cluster
// of the schedule's class and judges the outcome; each enabled kill
// fail-stops its machine mid-run. Deterministic end to end: same schedule +
// same parallel flag → same FleetOutcome, and the serial/parallel pair must
// agree byte for byte.
func RunFleet(s Schedule[FleetEvent], parallel bool) FleetOutcome {
	c, ok := caseByName(s.Class)
	if !ok {
		return FleetOutcome{Schedule: s, Violations: []string{fmt.Sprintf("unknown class %q", s.Class)}}
	}
	cl := newRecordedCluster(c, s.Seed, parallel, fleetDetectDelay, enokic.Config{})
	defer cl.Close()
	for _, ev := range s.Enabled() {
		cl.FailMachine(ev.Machine, time.Duration(ev.At))
	}
	// A fixed virtual budget, not RunUntilIdle: the record drain tasks tick
	// forever, so a recorded cluster never goes idle. The budget is part of
	// the plane's definition — identical in both drives.
	cl.Run(fleetBudget)

	res := FleetOutcome{Schedule: s, Stats: cl.Stats()}
	res.Logs, res.Jobs = cl.finish()
	res.Violations = fleetOracle(&res, cl.Cluster)
	return res
}

// fleetOracle evaluates the fleet run's invariants. As with the single-
// machine oracle, every rule is a property any correct cluster must uphold
// under any kill plan, so the verdict never needs to know what the kills
// "should" have done.
func fleetOracle(r *FleetOutcome, cl *cluster.Cluster) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	kills := r.Schedule.Enabled()

	// Survivor accounting: exactly the killed machines are dead at the end.
	if want := fleetMachines - len(kills); r.Stats.MachinesAlive != want {
		add("machines alive: %d, want %d (%d kills)", r.Stats.MachinesAlive, want, len(kills))
	}
	// No lost jobs: the survivors always have the capacity (kills are a
	// minority by construction), so every submitted job must finish.
	if r.Stats.Done != r.Stats.Submitted {
		add("lost jobs: %d of %d completed within budget", r.Stats.Done, r.Stats.Submitted)
	}
	// No job may finish on a dead machine. A done report sent just before
	// the kill legitimately lands up to NetLatency later, and the control
	// plane keeps accepting a dead machine's reports until detection fires
	// — anything past that horizon is a stale-report guard failure.
	dead := make(map[int]bool, len(kills))
	for _, ev := range kills {
		dead[ev.Machine] = true
	}
	horizon := int64(fleetDetectDelay + fleetNetLatency)
	for _, j := range r.Jobs {
		if j.State == cluster.JobDone && dead[j.Machine] &&
			int64(j.DoneAt) > killAtFor(kills, j.Machine)+horizon {
			add("job %d reported done on machine %d at %v, past its kill horizon %v",
				j.ID, j.Machine, time.Duration(j.DoneAt),
				time.Duration(killAtFor(kills, j.Machine)+horizon))
		}
	}
	// A dead machine's clock freezes: it can never advance past the fleet's
	// lookahead horizon beyond its kill time.
	for _, ev := range kills {
		if now := int64(cl.Machine(ev.Machine).Sharded().Now()); now >= int64(fleetBudget) {
			add("killed machine %d ran to the end of the budget (now %v, killed at %v)",
				ev.Machine, time.Duration(now), time.Duration(ev.At))
		}
	}
	return append(v, logViolations(r.Logs)...)
}

// killAtFor returns machine m's kill time, or a sentinel far past the
// budget when m was never killed.
func killAtFor(kills []FleetEvent, m int) int64 {
	for _, ev := range kills {
		if ev.Machine == m {
			return ev.At
		}
	}
	return int64(fleetBudget) * 2
}
