package chaos

import (
	"fmt"
	"strings"

	"enoki/internal/ktime"
)

// Minimize shrinks a failing schedule to a minimal reproducer: a greedy
// ddmin over the event mask that repeatedly re-runs the schedule with one
// more event disabled and keeps any subset that still fails the oracle,
// until no single event can be removed. Because a run is a pure function of
// (schedule, config), the result is deterministic and the surviving mask —
// not a transcript — is the whole reproducer. A passing schedule comes back
// unchanged, and the last enabled event is never cleared.
//
// Minimize accepts any failure as "the" failure (classic ddmin); a shrink
// that trades one violation for another still shrinks the search space a
// human has to read.
func Minimize[E, C any, R interface{ Failed() bool }](s Schedule[E], rc C, run func(Schedule[E], C) R) (Schedule[E], R) {
	res := run(s, rc)
	if !res.Failed() {
		return s, res
	}
	for changed := true; changed; {
		changed = false
		for i := range s.Events {
			if !s.EnabledAt(i) || s.EnabledCount() == 1 {
				continue
			}
			trial := s
			trial.Mask &^= 1 << uint(i)
			if tr := run(trial, rc); tr.Failed() {
				s, res = trial, tr
				changed = true
			}
		}
	}
	return s, res
}

// ReplayCommand renders the one-liner that reproduces a schedule with the
// enoki-chaos CLI; rc is the run config it failed under, whose
// CLI-visible switches become flags.
func ReplayCommand[E any](s Schedule[E], rc any) string {
	cmd := "enoki-chaos -replay " + s.Spec()
	switch rc := rc.(type) {
	case RunConfig:
		if rc.NoRollback {
			cmd += " -norollback"
		}
		if rc.VerifiedTier {
			cmd += " -verified"
		}
	case TrafficRunConfig:
		if rc.LeakShed {
			cmd += " -leakshed"
		}
	}
	return cmd
}

// CampaignConfig drives a multi-run chaos campaign on one plane.
type CampaignConfig[C any] struct {
	// Runs is how many seeded schedules to execute (default 100).
	Runs int
	// Seed roots the campaign; every run's schedule seed derives from it.
	Seed uint64
	// Classes restricts the classes exercised (default: all of them,
	// round-robin).
	Classes []string
	// MaxFailures stops the campaign after minimizing this many distinct
	// failing runs (default 3): minimization re-runs schedules, so an
	// everything-is-broken configuration should fail fast, not grind.
	MaxFailures int
	// Run tunes the individual runs (rollback, budgets, planted bugs).
	Run C
	// Progress, when set, receives one line per completed run.
	Progress func(string)
}

// Failure is one failing campaign run, minimized.
type Failure[E, R any] struct {
	// Result is the original failing run.
	Result R
	// Minimized is the shrunk schedule and its (still failing) run.
	Minimized Schedule[E]
	MinResult R
	// Replay is the one-line reproducer command.
	Replay string
}

// CampaignResult summarises a campaign.
type CampaignResult[E, R any] struct {
	Runs     int
	Failures []Failure[E, R]
}

// OK reports a clean campaign.
func (c *CampaignResult[E, R]) OK() bool { return len(c.Failures) == 0 }

// Campaign runs cfg.Runs seeded fault schedules of plane k round-robin
// across the target classes, minimizing every failure it finds. The
// campaign itself is deterministic: the master seed fixes each run's class
// and schedule, so a campaign that found a bug is as replayable as any
// single run.
func Campaign[E, C any, R outcome](k Kind[E, C, R], cfg CampaignConfig[C]) CampaignResult[E, R] {
	if cfg.Runs == 0 {
		cfg.Runs = 100
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 3
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = ClassNames()
	}
	master := ktime.NewRand(cfg.Seed)
	out := CampaignResult[E, R]{}
	for i := 0; i < cfg.Runs; i++ {
		class := classes[i%len(classes)]
		sch := k.Generate(master.Uint64(), class)
		res := k.run(sch, cfg.Run)
		out.Runs++
		if cfg.Progress != nil {
			status := "ok"
			if _, v := res.report(); len(v) > 0 {
				status = fmt.Sprintf("FAIL (%d violations)", len(v))
			}
			cfg.Progress(fmt.Sprintf("run %3d %-10s %-22s %s", i, class, sch.Spec(), status))
		}
		if !res.Failed() {
			continue
		}
		min, minRes := Minimize(sch, cfg.Run, k.run)
		out.Failures = append(out.Failures, Failure[E, R]{
			Result:    res,
			Minimized: min,
			MinResult: minRes,
			Replay:    ReplayCommand(min, cfg.Run),
		})
		if len(out.Failures) >= cfg.MaxFailures {
			break
		}
	}
	return out
}

// Replayed is one replayed spec: the report enoki-chaos prints (the
// schedule, what the run did, the oracle's verdict) and the violations
// behind the verdict.
type Replayed struct {
	Report     []string
	Violations []string
}

// Failed reports whether the oracle failed the replayed run.
func (r Replayed) Failed() bool { return len(r.Violations) > 0 }

// Replay parses spec on the plane its prefix names, runs it, and reports
// the oracle's verdict. Each plane takes the config of its own type from
// configs (RunConfig for v1:, TrafficRunConfig for t1:, ...) and the zero
// value when none is given, so f1: and r1: replay the serial drive of the
// shipped machinery. A malformed spec is a *SpecError.
func Replay(spec string, configs ...any) (Replayed, error) {
	prefix, _, _ := strings.Cut(spec, ":")
	k, ok := kinds[prefix]
	if !ok {
		return Replayed{}, &SpecError{Spec: spec, Field: "shape",
			Msg: "want v1:, f1:, r1: or t1:<class>:<seed>:<mask>"}
	}
	return k.replay(spec, configs)
}

func (k Kind[E, C, R]) replay(spec string, configs []any) (Replayed, error) {
	s, err := k.Parse(spec)
	if err != nil {
		return Replayed{}, err
	}
	var rc C
	for _, c := range configs {
		if c, ok := c.(C); ok {
			rc = c
		}
	}
	summary, violations := k.run(s, rc).report()
	out := Replayed{Violations: violations,
		Report: []string{fmt.Sprintf("replay %s  class=%s  events=%v", s.Spec(), s.Class, s.Enabled())}}
	for _, line := range summary {
		out.Report = append(out.Report, "  "+line)
	}
	if !out.Failed() {
		out.Report = append(out.Report, "  oracle: PASS")
		return out, nil
	}
	out.Report = append(out.Report, "  oracle: FAIL")
	for _, v := range violations {
		out.Report = append(out.Report, "    violation: "+v)
	}
	return out, nil
}
