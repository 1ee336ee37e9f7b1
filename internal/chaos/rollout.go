// Rollout chaos: the fleet-rollout fault plane. The fleet plane
// (fleet.go) sabotages a steady-state cluster; the rollout plane
// sabotages the cluster while it is *changing* — a canary rollout of a new
// module generation is in flight when machines die, the new generation is
// seeded faulty above a threshold, or failure detection is delayed. The
// oracle holds the rollout machinery to its contract: the rollout always
// resolves, a halted rollout leaves no machine on the new generation, and
// the report's upgrade/rollback counts balance against the final slot
// states. As everywhere in this package, every fault is a seeded draw, so
// a failing run replays bit-for-bit from its one-line spec string
// (`r1:<class>:<seed>:<mask>`).

package chaos

import (
	"fmt"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ktime"
	"enoki/internal/schedtest"
)

// Rollout run shape: the ten-machine recorded cluster of the fleet
// plane, with a canary rollout started at t=0 whose waves (canary 1, widen
// 2, 1ms soak) span the first handful of milliseconds — the window the
// fault draws target.
const (
	rolloutCanary  = 0.1
	rolloutWiden   = 2
	rolloutObserve = time.Millisecond
	rolloutVersion = "v2"
)

// rolloutSalt separates the rollout fault stream from the workload stream
// that shares the campaign seed.
const rolloutSalt uint64 = 0x94d049bb133111eb

// RolloutEvent is one rollout-plane fault. Field meaning is plane-specific:
// RolloutKill fail-stops Machine at At; RolloutFaulty makes the new
// generation panic in init on machines >= Threshold; RolloutDelayDetect
// adds Delay to the cluster's failure-detection bound.
type RolloutEvent struct {
	Plane     Plane
	Machine   int
	At        int64
	Threshold int
	Delay     int64
}

func (e RolloutEvent) String() string {
	switch e.Plane {
	case PlaneRolloutKill:
		return fmt.Sprintf("%v[m%d@%v]", e.Plane, e.Machine, time.Duration(e.At))
	case PlaneRolloutFaulty:
		return fmt.Sprintf("%v[m>=%d]", e.Plane, e.Threshold)
	case PlaneRolloutDelayDetect:
		return fmt.Sprintf("%v[+%v]", e.Plane, time.Duration(e.Delay))
	default:
		return e.Plane.String()
	}
}

// rolloutEvents draws the r1: plane's faults. The first draw is always a
// machine kill timed inside the rollout's wave window; up to two more draws
// add a faulty new generation above a threshold, a detection delay, or a
// second kill (never more than two kills, so the survivors keep the
// capacity to finish the workload).
func rolloutEvents(seed uint64, _ string) []RolloutEvent {
	rng := ktime.NewRand(seed ^ rolloutSalt)
	n := 1 + rng.Intn(3)
	evs := make([]RolloutEvent, 0, n)
	kills := map[int]bool{}
	drawKill := func() RolloutEvent {
		for {
			m := rng.Intn(fleetMachines)
			if kills[m] {
				continue
			}
			kills[m] = true
			return RolloutEvent{
				Plane:   PlaneRolloutKill,
				Machine: m,
				At:      int64(300*time.Microsecond) + int64(rng.Intn(3000))*int64(time.Microsecond),
			}
		}
	}
	evs = append(evs, drawKill())
	for len(evs) < n {
		switch rng.Intn(3) {
		case 0:
			if len(kills) >= 2 {
				continue
			}
			evs = append(evs, drawKill())
		case 1:
			evs = append(evs, RolloutEvent{
				Plane:     PlaneRolloutFaulty,
				Threshold: 1 + rng.Intn(fleetMachines-1),
			})
		case 2:
			evs = append(evs, RolloutEvent{
				Plane: PlaneRolloutDelayDetect,
				Delay: int64(1+rng.Intn(3)) * int64(500*time.Microsecond),
			})
		}
	}
	return evs
}

// RolloutRunConfig tunes one rollout run.
type RolloutRunConfig struct {
	// Parallel drives the fleet on worker goroutines; serial and parallel
	// runs of one schedule must agree byte for byte.
	Parallel bool
	// NoDeathResolve re-introduces the seeded bug where a dead machine's
	// in-flight rollout slot is never resolved and the wave barrier hangs.
	// The plane exists to prove the oracle catches this.
	NoDeathResolve bool
}

// RolloutOutcome is one rollout run's observable result plus the oracle's
// verdict.
type RolloutOutcome struct {
	Schedule Schedule[RolloutEvent]
	Stats    cluster.Stats
	Jobs     []cluster.Job
	Logs     [][][]byte
	// Resolved reports whether the rollout finished within the budget;
	// Report is only meaningful when it did (an unresolved rollout is
	// itself a violation).
	Resolved bool
	Report   cluster.RolloutReport
	Slots    []cluster.SlotStatus
	// Violations is the oracle's verdict: empty means the rollout
	// machinery upheld every invariant under the fault plan.
	Violations []string
}

// Failed reports whether the oracle found any invariant breach.
func (r RolloutOutcome) Failed() bool { return len(r.Violations) > 0 }

func (r RolloutOutcome) report() (summary, violations []string) {
	rep := r.Report
	return []string{fmt.Sprintf("rollout resolved=%v halted=%v completed=%v upgraded=%d rolledback=%d dead=%d, jobs %d/%d done",
		r.Resolved, rep.Halted, rep.Completed, rep.Upgraded, rep.RolledBack, rep.Dead,
		r.Stats.Done, r.Stats.Submitted)}, r.Violations
}

// RunRollout runs one rollout fault plan against the recorded ten-machine
// cluster of the schedule's class: a canary rollout of a fresh generation
// starts at t=0, and the enabled faults land while its waves are in
// flight. Deterministic end to end: same schedule + same config → same
// RolloutOutcome.
func RunRollout(s Schedule[RolloutEvent], rc RolloutRunConfig) RolloutOutcome {
	c, ok := caseByName(s.Class)
	if !ok || c.NewModule == nil {
		return RolloutOutcome{Schedule: s, Violations: []string{fmt.Sprintf("class %q has no upgradable module", s.Class)}}
	}

	detect := fleetDetectDelay
	faultyThreshold := fleetMachines // above every machine: no faults
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlaneRolloutDelayDetect:
			detect += time.Duration(ev.Delay)
		case PlaneRolloutFaulty:
			if ev.Threshold < faultyThreshold {
				faultyThreshold = ev.Threshold
			}
		}
	}

	cl := newRecordedCluster(c, s.Seed, rc.Parallel, detect, enokic.DefaultConfig())
	defer cl.Close()
	factory := func(mi int, env core.Env) core.Scheduler {
		sched := c.NewModule(env, env.NumCPUs())
		if mi >= faultyThreshold {
			return &schedtest.Injector{Scheduler: sched, PanicInInit: true}
		}
		return sched
	}
	ro, err := cl.StartRollout(cluster.RolloutConfig{
		Version: rolloutVersion, Factory: factory,
		Canary: rolloutCanary, Widen: rolloutWiden, Observe: rolloutObserve,
		NoDeathResolve: rc.NoDeathResolve,
	})
	if err != nil {
		return RolloutOutcome{Schedule: s, Violations: []string{fmt.Sprintf("StartRollout: %v", err)}}
	}
	for _, ev := range s.Enabled() {
		if ev.Plane == PlaneRolloutKill {
			cl.FailMachine(ev.Machine, time.Duration(ev.At))
		}
	}
	// A fixed virtual budget, not RunUntilIdle: the record drain tasks
	// tick forever — and an unresolved rollout (the seeded bug this
	// plane hunts) would hold RunUntilIdle open forever anyway.
	cl.Run(fleetBudget)

	res := RolloutOutcome{
		Schedule: s, Stats: cl.Stats(),
		Resolved: ro.Done(), Report: ro.Report(), Slots: ro.Slots(),
	}
	res.Logs, res.Jobs = cl.finish()
	res.Violations = rolloutOracle(&res, cl.Cluster)
	return res
}

// rolloutOracle evaluates the rollout invariants. Every rule is a property
// any correct rollout machinery must uphold under any fault plan drawn
// from this plane, so the verdict never needs to know what the faults
// "should" have done.
func rolloutOracle(r *RolloutOutcome, cl *cluster.Cluster) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// The rollout always resolves: every wave barrier is retired by acks
	// or by death detection. An unresolved rollout at the end of a budget
	// an order of magnitude past the wave span is the hang this plane
	// exists to catch.
	if !r.Resolved {
		add("rollout unresolved at end of budget: a wave barrier hung")
		return v // the remaining rules assume a final report
	}

	rep := r.Report
	// Upgrade/rollback report counts balance against the final slot
	// states, and no slot is stuck in a transient state.
	var healthy, rolledBack, dead, pending int
	for _, sl := range r.Slots {
		switch sl.State {
		case cluster.SlotHealthy:
			healthy++
		case cluster.SlotRolledBack:
			rolledBack++
		case cluster.SlotDead:
			dead++
		case cluster.SlotPending:
			pending++
		default:
			add("machine %d stuck in transient rollout state %v", sl.Machine, sl.State)
		}
	}
	if healthy != rep.Upgraded || rolledBack != rep.RolledBack || dead != rep.Dead {
		add("report counts unbalanced: upgraded %d/%d, rolled back %d/%d, dead %d/%d (slots/report)",
			healthy, rep.Upgraded, rolledBack, rep.RolledBack, dead, rep.Dead)
	}
	if healthy+rolledBack+dead+pending != rep.Targets {
		add("slots don't cover targets: %d+%d+%d+%d != %d", healthy, rolledBack, dead, pending, rep.Targets)
	}

	if rep.Halted {
		// A halted rollout leaves no machine upgraded...
		if rep.Upgraded != 0 {
			add("halted rollout reports %d machines still upgraded", rep.Upgraded)
		}
		// ...and at least one verdict must justify the halt.
		justified := false
		for _, vd := range rep.Verdicts {
			if !vd.Healthy {
				justified = true
			}
		}
		if !justified {
			add("halted rollout has no failing verdict")
		}
		// No machine left on the new module after a halted rollout: every
		// alive machine's every live shard serves the previous generation.
		views := cl.Views()
		for mi := 0; mi < cl.NumMachines(); mi++ {
			if !views[mi].Alive {
				continue
			}
			for sh, ad := range cl.Machine(mi).Adapters() {
				if ad == nil || ad.Killed() {
					continue
				}
				if ad.Version() == rolloutVersion {
					add("halted rollout left machine %d shard %d on %s", mi, sh, rolloutVersion)
				}
			}
		}
	} else if rep.Completed {
		// A completed rollout converged: every surviving target serves the
		// new generation on every live shard.
		views := cl.Views()
		for _, sl := range r.Slots {
			if sl.State != cluster.SlotHealthy {
				continue
			}
			if !views[sl.Machine].Alive {
				continue // died after resolution; nothing to check
			}
			for sh, ad := range cl.Machine(sl.Machine).Adapters() {
				if ad == nil || ad.Killed() {
					continue
				}
				if ad.Version() != rolloutVersion {
					add("completed rollout left machine %d shard %d on %s", sl.Machine, sh, ad.Version())
				}
			}
		}
	} else {
		add("resolved rollout neither completed nor halted: %+v", rep)
	}

	// The cluster still delivers: kills are a minority by construction, so
	// every submitted job finishes within the budget.
	if r.Stats.Done != r.Stats.Submitted {
		add("lost jobs: %d of %d completed within budget", r.Stats.Done, r.Stats.Submitted)
	}
	return append(v, logViolations(r.Logs)...)
}
