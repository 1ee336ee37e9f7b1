// The traffic plane: chaos campaigns whose schedules mix adversarial
// traffic shapes (flash crowds, antagonists, churn storms) with the module
// and kernel fault planes, driven through the overload-control front door.
// A `t1:` spec replays the whole thing — scenario shapes and faults alike
// regenerate from the seed — and ddmin shrinks a failing schedule exactly
// like the single-machine and fleet planes. The oracle's centerpiece is
// shed-accounting conservation: offered = admitted + shed, shed = retried
// + dropped, and every admitted request completes, module kill or not.
package chaos

import (
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/overload"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
	"enoki/internal/sim"
	"enoki/internal/workload/traffic"
)

// trafficSalt decorrelates schedule generation from the scenario's own
// arrival draws (which use the same seed through the traffic package).
const trafficSalt uint64 = 0xd6e8feb86659fd93

// trafficShapes are the planes trafficEvents always leads with.
var trafficShapes = []Plane{PlaneTrafficFlash, PlaneTrafficAntag, PlaneTrafficChurn}

// trafficEvents draws the t1: plane's events. The first event is always a
// traffic shape (a traffic run without traffic tests nothing); the rest mix
// more shapes with the class's fault planes, so campaigns sweep the cross
// product of overload and sabotage.
func trafficEvents(seed uint64, class string) []Event {
	rng := ktime.NewRand(seed ^ trafficSalt)
	c, _ := caseByName(class)
	pool := []Plane{PlaneTrafficFlash, PlaneTrafficAntag, PlaneTrafficChurn,
		PlaneIPIDrop, PlaneIPIDelay, PlaneTimerSkew}
	if c.NewModule != nil {
		pool = append(pool, PlanePanic, PlaneStall)
	}
	n := 2 + int(rng.Intn(3))
	evs := make([]Event, 0, n)
	evs = append(evs, trafficEventFor(trafficShapes[rng.Intn(len(trafficShapes))], rng))
	for j := 1; j < n; j++ {
		p := pool[rng.Intn(len(pool))]
		if p == PlaneTrafficFlash || p == PlaneTrafficAntag || p == PlaneTrafficChurn {
			evs = append(evs, trafficEventFor(p, rng))
		} else {
			ev := eventFor(p, rng)
			// Fault windows drawn for the 1s single-machine budget land
			// past a traffic run's few-ms scenario; fold them into it.
			ev.At %= int64(6 * time.Millisecond)
			if ev.At < int64(time.Millisecond) {
				ev.At += int64(time.Millisecond)
			}
			if ev.Dur > int64(4*time.Millisecond) {
				ev.Dur = int64(4 * time.Millisecond)
			}
			if p == PlanePanic {
				ev.Count %= 600
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// trafficEventFor draws one traffic shape's window and multiplier, inside
// the fixed 8ms scenario the runner builds.
func trafficEventFor(p Plane, rng *ktime.Rand) Event {
	ev := Event{Plane: p}
	ev.At = int64(1+rng.Intn(4)) * int64(time.Millisecond)
	ev.Dur = int64(1+rng.Intn(3)) * int64(time.Millisecond)
	switch p {
	case PlaneTrafficFlash:
		ev.Count = 4 + int(rng.Intn(7)) // ×4..×10 on the service class
	case PlaneTrafficAntag:
		ev.Count = 3 + int(rng.Intn(6)) // ×3..×8 on the background class
	case PlaneTrafficChurn:
		ev.Count = 1
	}
	return ev
}

// TrafficRunConfig tunes one traffic-plane run.
type TrafficRunConfig struct {
	// Budget bounds virtual run time (default 60ms: the 8ms scenario plus
	// generous drain for retry backoff chains under faults).
	Budget time.Duration
	// LeakShed plants the seeded overload bug: the controller drops
	// final-attempt sheds without counting them, so conservation breaks —
	// the bug the oracle must catch and ddmin must shrink.
	LeakShed bool
}

func (rc TrafficRunConfig) withDefaults() TrafficRunConfig {
	if rc.Budget == 0 {
		rc.Budget = 60 * time.Millisecond
	}
	return rc
}

// TrafficResult is one traffic run's outcome plus the oracle's verdict.
type TrafficResult struct {
	Schedule   Schedule[Event]
	Report     traffic.Report
	Killed     bool
	Failure    *enokic.FailureReport
	Violations []string
}

// Failed reports whether the oracle found any invariant breach.
func (r TrafficResult) Failed() bool { return len(r.Violations) > 0 }

func (r TrafficResult) report() (summary, violations []string) {
	n := r.Report.Total
	return []string{fmt.Sprintf("conns=%d offered=%d admitted=%d shed=%d retried=%d dropped=%d killed=%v",
		r.Report.Connections, n.Offered, n.Admitted, n.Shed, n.Retried, n.Dropped, r.Killed)}, r.Violations
}

// trafficScenario builds the fixed two-class scenario a traffic run
// drives: a fanout service class on the module under test (or CFS for
// module-less classes) and a CFS background class, two regions, diurnal
// curve on. The schedule's enabled traffic shapes graft onto it.
func trafficScenario(s Schedule[Event], policy int) traffic.Scenario {
	sc := traffic.Scenario{
		Seed:     s.Seed,
		Rate:     140_000,
		Duration: 8 * time.Millisecond,
		Classes: []traffic.Class{
			{Name: "svc", Policy: policy, Admission: 0, Weight: 0.75,
				Work: 25 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 250 * time.Microsecond},
			{Name: "bg", Policy: conformance.PolicyCFS, Admission: 1, Weight: 0.25,
				Work: 60 * time.Microsecond},
		},
		Regions: []traffic.Region{
			{Name: "east", Share: 0.5},
			{Name: "west", Share: 0.5, Offset: 4 * time.Millisecond},
		},
	}
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlaneTrafficFlash:
			sc.Shapes = append(sc.Shapes, traffic.Shape{Kind: traffic.Flash, Class: 0,
				At: time.Duration(ev.At), Dur: time.Duration(ev.Dur), Mult: float64(ev.Count)})
		case PlaneTrafficAntag:
			sc.Shapes = append(sc.Shapes, traffic.Shape{Kind: traffic.Antagonist, Class: 1,
				At: time.Duration(ev.At), Dur: time.Duration(ev.Dur), Mult: float64(ev.Count)})
		case PlaneTrafficChurn:
			sc.Shapes = append(sc.Shapes, traffic.Shape{Kind: traffic.Churn, Class: -1,
				At: time.Duration(ev.At), Dur: time.Duration(ev.Dur), Mult: 1})
		}
	}
	return sc
}

// trafficAdmission is the run's fixed admission plan: the service class
// sheds at 48 inflight with two retries and browns out on queue depth;
// background is unlimited (it can never shed, which the oracle checks).
func trafficAdmission(policy int, leak bool) overload.Config {
	return overload.Config{
		Classes: []overload.ClassConfig{
			{Name: "svc", Policy: policy, MaxInflight: 48, MaxRetries: 2,
				Backoff: 200 * time.Microsecond, EnterDepth: 40, ExitDepth: 8},
			{Name: "bg", Policy: conformance.PolicyCFS},
		},
		LeakShed: leak,
	}
}

// RunTraffic executes one traffic schedule: the scenario's arrivals pass
// through admission into a single 8-CPU kernel running the class under
// test, while the schedule's fault events sabotage the module and the
// machine. Deterministic end to end.
func RunTraffic(s Schedule[Event], rc TrafficRunConfig) TrafficResult {
	rc = rc.withDefaults()
	c, ok := caseByName(s.Class)
	if !ok {
		return TrafficResult{Schedule: s, Violations: []string{fmt.Sprintf("unknown class %q", s.Class)}}
	}

	eng := sim.New()
	m := kernel.Machine8()
	k := kernel.New(eng, m, kernel.CostsFor(m))
	res := TrafficResult{Schedule: s}

	policy := conformance.PolicyCFS
	inj := &schedtest.Injector{Clock: func() int64 { return int64(k.Now()) }}
	var adapter *enokic.Adapter
	if c.NewModule != nil {
		policy = conformance.PolicyTest
		adapter = enokic.Load(k, policy, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
			inj.Scheduler = c.NewModule(env, k.NumCPUs())
			return inj
		})
	}
	k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))

	kf := &kernelFaults{clock: inj.Clock, rng: ktime.NewRand(s.Seed ^ kernelSalt)}
	armedKernel := false
	for _, ev := range s.Enabled() {
		armedKernel = arm(ev, inj, kf, adapter != nil) || armedKernel
	}
	if armedKernel {
		k.SetFaultInjector(kf)
	}

	sc := trafficScenario(s, policy)
	ads := map[int]*enokic.Adapter{}
	if adapter != nil {
		ads[policy] = adapter
	}
	d := traffic.NewDriver(k, sc, traffic.DriverConfig{
		Controller:  overload.New(trafficAdmission(policy, rc.LeakShed)),
		Adapters:    ads,
		SampleEvery: 250 * time.Microsecond,
	})
	d.Start()
	k.RunFor(rc.Budget)

	if adapter != nil {
		res.Killed = adapter.Killed()
		res.Failure = adapter.Failure()
	}
	res.Report = traffic.Collect(d)
	res.Violations = trafficOracle(&res)
	return res
}

// trafficOracle judges one traffic run. Every rule holds for any correct
// stack under any schedule: conservation balances, admitted work finishes
// (rehomed if the module died), kills are earned, brownout episodes close,
// and the unlimited background class never sheds.
func trafficOracle(r *TrafficResult) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Shed-accounting conservation, inflight drained to zero included
	// (the controller's own messages carry the "conservation:" prefix).
	for _, cv := range r.Report.Violations {
		add("%s", cv)
	}
	// Every admitted request completed within budget — under the module,
	// or under CFS after a kill rehomed its tasks.
	for ci, c := range r.Report.Classes {
		if c.Requests != c.Completed {
			add("class %d (%s): %d admitted, %d completed", ci, c.Name, c.Requests, c.Completed)
		}
	}
	if r.Report.Total.Admitted == 0 {
		add("nothing admitted: the run tested no traffic")
	}
	// The unlimited class must never shed.
	if n := r.Report.Admission[1]; n.Shed != 0 {
		add("unlimited background class shed %d requests", n.Shed)
	}
	// Kills must be earned by a module-sabotage plane; a flash crowd that
	// kills the module means overload reached the trait boundary.
	if r.Killed && !killJustified(r.Schedule) {
		cause := "unknown"
		if r.Failure != nil {
			cause = r.Failure.Fault.String()
		}
		add("module killed without a kill-justifying fault plane: %s", cause)
	}
	// Brownout recovery: every entered episode must have exited by drain.
	if r.Report.BrownoutEntered && !r.Report.Recovered {
		add("brownout entered but never recovered within budget")
	}
	return v
}
