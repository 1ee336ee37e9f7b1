package chaos

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
	"enoki/internal/vpol"
)

// StormHint is the hint payload PlaneHintStorm pushes. Modules ignore
// unknown hint types by contract, so a storm stresses only the ring and the
// notification path, never module semantics.
type StormHint struct{ N int }

func init() { gob.Register(StormHint{}) }

// Seed salts: every stream a run draws from derives from the schedule seed, but
// through distinct salts so the workload, the kernel fault draws, and the
// schedule generation never share a sequence.
const (
	workloadSalt uint64 = 0x9e3779b97f4a7c15
	kernelSalt   uint64 = 0xbf58476d1ce4e5b9
)

// RunConfig tunes one chaos run. The zero value selects the defaults below;
// Rollback is intentionally "on unless disabled" via NoRollback so the zero
// value tests the shipped (transactional) configuration.
type RunConfig struct {
	// Tasks is the workload size (default 24).
	Tasks int
	// Budget bounds virtual run time (default 1s — far beyond what any
	// healthy run needs, so starved tasks are visible as lost progress).
	Budget time.Duration
	// StarveWindow is the watchdog window for the run (default 5ms: tight,
	// so starvation faults resolve quickly inside the budget).
	StarveWindow time.Duration
	// PntErrBudget is the pick-error budget (default 64).
	PntErrBudget int
	// NoRollback disables transactional upgrades, reverting to kill-on-
	// upgrade-fault — the deliberately seeded bug the oracle must catch.
	NoRollback bool
	// NoRecord skips the record log and its decodability check.
	NoRecord bool
	// VerifiedTier additionally mounts the verified-bytecode dual-queue
	// program above the class under test, routing every third workload
	// task through the interpreter. No chaos plane targets the verified
	// tier, so the oracle treats a verified-class kill as a violation.
	VerifiedTier bool
}

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Tasks == 0 {
		rc.Tasks = 24
	}
	if rc.Budget == 0 {
		rc.Budget = time.Second
	}
	if rc.StarveWindow == 0 {
		rc.StarveWindow = 5 * time.Millisecond
	}
	if rc.PntErrBudget == 0 {
		rc.PntErrBudget = 64
	}
	return rc
}

// UpgradeOutcome pairs one scheduled upgrade with what the adapter reported.
type UpgradeOutcome struct {
	// Faulty marks a PlaneUpgradeKill upgrade (new version panics in init).
	Faulty bool
	Report enokic.UpgradeReport
}

// Result is one chaos run's observable outcome plus the oracle's verdict.
type Result struct {
	Schedule  Schedule[Event]
	Tasks     int
	Completed int
	Killed    bool
	Failure   *enokic.FailureReport
	Stats     enokic.Stats
	Upgrades  []UpgradeOutcome
	// VerifiedKilled/VerifiedFailure/VerifiedPicks report the verified
	// tier's fate when RunConfig.VerifiedTier mounted it.
	VerifiedKilled  bool
	VerifiedFailure *vpol.FailureReport
	VerifiedPicks   uint64
	// UpgradesScheduled counts upgrades the schedule requested; every one
	// must produce exactly one outcome (possibly ErrModuleKilled).
	UpgradesScheduled int
	// HintAttempts counts storm pushes, checked against delivered+dropped.
	HintAttempts uint64
	// RecordLog is the raw record-channel bytes (nil with NoRecord), kept
	// so determinism tests can compare runs byte for byte.
	RecordLog []byte
	// Violations is the oracle's verdict: empty means the run upheld every
	// invariant.
	Violations []string
}

// Failed reports whether the oracle found any invariant breach.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

func (r Result) report() (summary, violations []string) {
	summary = []string{fmt.Sprintf("completed %d/%d tasks, killed=%v, upgrades=%d",
		r.Completed, r.Tasks, r.Killed, len(r.Upgrades))}
	if r.Failure != nil {
		summary = append(summary, fmt.Sprintf("module failure: %s at %v", r.Failure.Fault, r.Failure.At))
	}
	return summary, r.Violations
}

func caseByName(name string) (conformance.Case, bool) {
	for _, c := range conformance.Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return conformance.Case{}, false
}

// ClassNames lists every scheduler class a campaign can target.
func ClassNames() []string {
	cases := conformance.Cases()
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.Name
	}
	return out
}

// kernelFaults implements core.KernelFaultInjector for the kernel planes:
// window-gated IPI drop/delay/duplication and timer skew. All draws come
// from a dedicated seeded stream and the methods never allocate, honouring
// the injector contract.
type kernelFaults struct {
	clock func() int64
	rng   *ktime.Rand

	dropFrom, dropUntil   int64
	dropMag               int64
	delayFrom, delayUntil int64
	delayMag              int64
	dupFrom, dupUntil     int64
	dupMag                int64
	skewFrom, skewUntil   int64
	skewMag               int64
}

func within(now, from, until int64) bool {
	return until > from && now >= from && now < until
}

// DisarmedInjector returns the engine's kernel fault injector with no fault
// window armed — the steady state every chaos run's kick and timer paths see
// between events. Exported so the allocation ratchet can pin "disabled fault
// hooks are free" against the real injector code rather than a stand-in.
func DisarmedInjector(clock func() int64, seed uint64) core.KernelFaultInjector {
	return &kernelFaults{clock: clock, rng: ktime.NewRand(seed)}
}

func (f *kernelFaults) InterceptKick(target int, delay time.Duration) core.KickFate {
	now := f.clock()
	var fate core.KickFate
	if within(now, f.dropFrom, f.dropUntil) {
		fate.Delay += time.Duration(f.dropMag)
	}
	if within(now, f.delayFrom, f.delayUntil) && f.delayMag > 0 {
		fate.Delay += time.Duration(f.rng.Uint64() % uint64(f.delayMag))
	}
	if within(now, f.dupFrom, f.dupUntil) {
		fate.Duplicate = true
		fate.DupDelay = time.Duration(f.dupMag)
	}
	return fate
}

func (f *kernelFaults) SkewTimer(cpu int, d time.Duration) time.Duration {
	now := f.clock()
	if within(now, f.skewFrom, f.skewUntil) && f.skewMag > 0 {
		d += time.Duration(f.rng.Uint64() % uint64(f.skewMag))
	}
	return d
}

// arm applies one enabled module or kernel fault event: module planes arm
// the injector when the class has a module to sabotage, kernel planes the
// kernel fault windows. It reports whether it armed a kernel window; other
// planes are the caller's to apply.
func arm(ev Event, inj *schedtest.Injector, kf *kernelFaults, module bool) bool {
	switch ev.Plane {
	case PlanePanic:
		if module {
			inj.PanicSite, inj.PanicAt = ev.Site, ev.Count
		}
	case PlaneStall:
		if module {
			inj.StallFrom = ev.At
			inj.StallUntil = 0
			if ev.Dur > 0 {
				inj.StallUntil = ev.At + ev.Dur
			}
		}
	case PlaneForge:
		if module {
			inj.ForgeFrom, inj.ForgeCount = int(ev.Mag), ev.Count
		}
	case PlaneIPIDrop:
		kf.dropFrom, kf.dropUntil, kf.dropMag = ev.At, ev.At+ev.Dur, ev.Mag
		return true
	case PlaneIPIDelay:
		kf.delayFrom, kf.delayUntil, kf.delayMag = ev.At, ev.At+ev.Dur, ev.Mag
		return true
	case PlaneIPIDup:
		kf.dupFrom, kf.dupUntil, kf.dupMag = ev.At, ev.At+ev.Dur, ev.Mag
		return true
	case PlaneTimerSkew:
		kf.skewFrom, kf.skewUntil, kf.skewMag = ev.At, ev.At+ev.Dur, ev.Mag
		return true
	}
	return false
}

// Run executes one fault schedule against its class and judges the outcome
// with the invariant oracle. Deterministic end to end: same schedule + same
// config → same Result, byte-identical record log included.
func Run(s Schedule[Event], rc RunConfig) Result {
	rc = rc.withDefaults()
	c, ok := caseByName(s.Class)
	if !ok {
		return Result{Schedule: s, Violations: []string{fmt.Sprintf("unknown class %q", s.Class)}}
	}

	cfg := enokic.DefaultConfig()
	cfg.StarveWindow = rc.StarveWindow
	cfg.PntErrBudget = rc.PntErrBudget
	cfg.UpgradeRollback = !rc.NoRollback
	if rc.VerifiedTier {
		c.Verified = vpol.DualQueueProgram()
	}

	inj := &schedtest.Injector{}
	var rig *conformance.Rig
	if c.NewModule == nil {
		rig = conformance.NewRig(c, cfg, nil)
	} else {
		rig = conformance.NewRig(c, cfg, func(m core.Scheduler) core.Scheduler {
			inj.Scheduler = m
			return inj
		})
	}
	k := rig.K
	eng := k.Engine()
	inj.Clock = func() int64 { return int64(k.Now()) }

	res := Result{Schedule: s, Tasks: rc.Tasks}

	var buf bytes.Buffer
	var rec *record.Recorder
	if !rc.NoRecord && rig.Adapter != nil {
		rec = record.New(k, &buf, conformance.PolicyCFS, record.DefaultCosts())
		rig.Adapter.SetRecorder(rec)
	}

	kf := &kernelFaults{clock: inj.Clock, rng: ktime.NewRand(s.Seed ^ kernelSalt)}
	armedKernel := false
	var storms []Event

	for _, ev := range s.Enabled() {
		armedKernel = arm(ev, inj, kf, rig.Adapter != nil) || armedKernel
		switch ev.Plane {
		case PlaneHintStorm:
			if rig.Adapter != nil && c.SupportsHints {
				storms = append(storms, ev)
			}
		case PlaneUpgrade, PlaneUpgradeKill:
			if rig.Adapter == nil {
				break
			}
			faulty := ev.Plane == PlaneUpgradeKill
			res.UpgradesScheduled++
			eng.Post(time.Duration(ev.At), func() {
				factory := func(env core.Env) core.Scheduler {
					m := c.NewModule(env, k.NumCPUs())
					if faulty {
						m = &schedtest.Injector{Scheduler: m, PanicInInit: true}
					}
					return m
				}
				err := rig.Adapter.Upgrade(factory, func(rep enokic.UpgradeReport) {
					res.Upgrades = append(res.Upgrades, UpgradeOutcome{Faulty: faulty, Report: rep})
				})
				if err != nil {
					// Module already dead: the refusal is the outcome.
					res.Upgrades = append(res.Upgrades, UpgradeOutcome{
						Faulty: faulty, Report: enokic.UpgradeReport{Err: err},
					})
				}
			})
		}
	}
	if armedKernel {
		k.SetFaultInjector(kf)
	}
	if len(storms) > 0 {
		// A tiny ring makes overflow certain; the accounting must balance.
		q := rig.Adapter.CreateHintQueue(8)
		if q != nil {
			for _, ev := range storms {
				n := ev.Count
				eng.Post(time.Duration(ev.At), func() {
					for j := 0; j < n; j++ {
						res.HintAttempts++
						q.Send(StormHint{N: j})
					}
				})
			}
		}
	}

	checker := conformance.StartChecker(rig, 200*time.Microsecond)
	w := conformance.Workload{
		Seed:   s.Seed ^ workloadSalt,
		Tasks:  rc.Tasks,
		Churn:  true,
		Budget: rc.Budget,
	}
	res.Completed = w.Run(rig)
	checker.Stop()

	if rig.Adapter != nil {
		res.Killed = rig.Adapter.Killed()
		res.Failure = rig.Adapter.Failure()
		res.Stats = rig.Adapter.Stats()
	}
	if rig.Verified != nil {
		res.VerifiedKilled = rig.Verified.Killed()
		res.VerifiedFailure = rig.Verified.Failure()
		res.VerifiedPicks = rig.Verified.Stats().Picks
	}
	if rec != nil {
		rec.Close()
		res.RecordLog = buf.Bytes()
	}

	res.Violations = oracle(&res, rc, checker)
	return res
}

// killJustified reports whether any enabled event belongs to a plane for
// which killing the module is a legitimate fault-layer response. Upgrade
// planes never justify a kill (the transaction must roll back), nor do hint
// storms (overflow sheds, it does not corrupt) or kernel planes (IPI and
// timer degradation bound liveness but never destroy it).
func killJustified(s Schedule[Event]) bool {
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlanePanic, PlaneStall, PlaneForge:
			return true
		}
	}
	return false
}

// oracle evaluates the run's invariants. Every rule is a property any
// correct configuration must uphold under any fault schedule, so a verdict
// never needs to know what the faults "should" have done — only what the
// stack guarantees.
func oracle(r *Result, rc RunConfig, checker *conformance.Checker) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// No lost tasks: whatever faulted, every task finishes — under the
	// module, or under CFS after a rehome.
	if r.Completed != r.Tasks {
		add("lost tasks: %d of %d completed within budget", r.Completed, r.Tasks)
	}
	// No double-run / state / affinity breaches.
	for _, cv := range checker.Violations {
		add("checker: %s", cv)
	}
	// The verified tier is untargeted by every chaos plane and its
	// programs are statically verified, so any verified-class kill is a
	// bug in the interpreter or verifier — and an idle verified tier
	// means its share of the workload was never scheduled through it.
	if r.VerifiedKilled {
		trap := "unknown"
		if r.VerifiedFailure != nil {
			trap = r.VerifiedFailure.Trap.String()
		}
		add("verified class killed (no chaos plane targets the verified tier): %s", trap)
	}
	if rc.VerifiedTier && r.VerifiedPicks == 0 {
		add("verified tier mounted but never picked a task")
	}
	// Kills must be earned by a module-sabotage plane.
	if r.Killed && !killJustified(r.Schedule) {
		cause := "unknown"
		if r.Failure != nil {
			cause = r.Failure.Fault.String()
		}
		add("module killed without a kill-justifying fault plane: %s", cause)
	}
	// The watchdog must fire within its budget: detection lag is bounded
	// by the window plus one re-arm granularity (with slack for stacked
	// fault timing).
	if r.Failure != nil && r.Failure.Fault.Cause == core.FaultStarvation {
		if r.Failure.Downtime > 4*rc.StarveWindow {
			add("watchdog exceeded budget: starved %v with window %v",
				r.Failure.Downtime, rc.StarveWindow)
		}
	}
	// Every scheduled upgrade resolves exactly once — success, rollback,
	// or ErrModuleKilled — never silence.
	if len(r.Upgrades) != r.UpgradesScheduled {
		add("upgrade callbacks: %d scheduled, %d resolved", r.UpgradesScheduled, len(r.Upgrades))
	}
	// Upgrade transactionality, judged only while the module is alive (a
	// justified kill makes ErrModuleKilled the right answer; an unjustified
	// one is already reported above).
	if !r.Killed {
		for _, u := range r.Upgrades {
			switch {
			case u.Report.Err != nil:
				add("upgrade resolved with error on a live module: %v", u.Report.Err)
			case u.Faulty && !u.Report.RolledBack:
				add("faulty upgrade did not roll back (new module's init panicked)")
			case !u.Faulty && u.Report.RolledBack:
				add("clean upgrade rolled back: %v", u.Report.Fault)
			}
		}
	}
	// Hint accounting balances: every storm push is either delivered or a
	// counted drop — overload is observable, never silent.
	if r.HintAttempts > 0 && r.Stats.HintsDelivered+r.Stats.HintsDropped != r.HintAttempts {
		add("hint accounting leak: %d delivered + %d dropped != %d attempts",
			r.Stats.HintsDelivered, r.Stats.HintsDropped, r.HintAttempts)
	}
	// The record log survives whatever the run did to the module.
	if r.RecordLog != nil {
		if _, err := record.Load(bytes.NewReader(r.RecordLog)); err != nil {
			add("record log not decodable: %v", err)
		}
	}
	return v
}
