// The one chaos harness. All four campaign planes — one machine (`v1:`),
// fleet machine kills (`f1:`), fleet rollouts (`r1:`) and traffic (`t1:`)
// — render their reproducer as <prefix>:<class>:<seed hex>:<mask hex>, one
// line that regenerates the whole fault plan. The planes differ only in
// what they draw and what they run, so everything around that is shared:
// one Schedule type, one parse path, one ddmin and one campaign loop
// (minimize.go), and one Replay, all driven by the four Kind rows below.
//
// A spec string is untrusted input (a CI log, a bug report, a shell
// history). The parser rejects truncated or padded specs, empty fields,
// unparseable hex, classes the plane cannot run, and masks beyond the
// generated events up front with a typed error, and never panics.

package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// SpecError is the typed failure every spec parser returns for malformed
// input: which spec, which field ("shape", "class", "seed", "mask"), and
// why. Callers can errors.As on it to distinguish a bad spec from an
// infrastructure error.
type SpecError struct {
	Spec  string
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("chaos: bad %s in spec %q: %s", e.Field, e.Spec, e.Msg)
}

// Schedule is one run's fault plan on any plane: the spec prefix naming
// the plane, a class, the seed every draw in the run derives from, the
// generated events, and an enable mask the minimizer clears bits in. Every
// generator draws far fewer than 64 events, so the mask fits a uint64 and
// the whole plan round-trips through the spec string.
type Schedule[E any] struct {
	Prefix string
	Seed   uint64
	Class  string
	Events []E
	Mask   uint64
}

// EnabledAt reports whether event i survives the mask.
func (s Schedule[E]) EnabledAt(i int) bool { return s.Mask>>uint(i)&1 == 1 }

// EnabledCount counts surviving events.
func (s Schedule[E]) EnabledCount() int {
	n := 0
	for i := range s.Events {
		if s.EnabledAt(i) {
			n++
		}
	}
	return n
}

// Enabled returns the surviving events, for reporting.
func (s Schedule[E]) Enabled() []E {
	out := make([]E, 0, len(s.Events))
	for i, ev := range s.Events {
		if s.EnabledAt(i) {
			out = append(out, ev)
		}
	}
	return out
}

// Spec renders the schedule as its replay string. The plane's generator is
// a pure function of (seed, class), so seed + mask reconstructs the exact
// fault plan: the spec is the whole reproducer.
func (s Schedule[E]) Spec() string {
	return fmt.Sprintf("%s:%s:%x:%x", s.Prefix, s.Class, s.Seed, s.Mask)
}

// outcome is what every plane's runner returns: the oracle's verdict, and
// the summary lines and violations Replay reports.
type outcome interface {
	Failed() bool
	report() (summary, violations []string)
}

// Kind is one plane's row in the harness table: its spec prefix, its class
// rule, the pure generator that draws its events, and the runner that
// executes and judges one schedule under a run config C.
type Kind[E, C any, R outcome] struct {
	prefix string
	// module is the class rule: the plane needs an upgradable module, so
	// it rejects module-less classes such as the CFS baseline.
	module bool
	draw   func(seed uint64, class string) []E
	run    func(Schedule[E], C) R
}

// The four planes.
var (
	// V1 sabotages one machine: module panics, stalls and forgeries, hint
	// storms, IPI and timer faults, and live-upgrade faults (run.go).
	V1 = Kind[Event, RunConfig, Result]{prefix: "v1", draw: machineEvents, run: Run}
	// F1 fail-stops fleet machines mid-run (fleet.go); its run config is
	// the parallel-drive switch.
	F1 = Kind[FleetEvent, bool, FleetOutcome]{prefix: "f1", draw: fleetEvents, run: RunFleet}
	// R1 sabotages a fleet rollout in flight (rollout.go).
	R1 = Kind[RolloutEvent, RolloutRunConfig, RolloutOutcome]{prefix: "r1", module: true,
		draw: rolloutEvents, run: RunRollout}
	// T1 mixes adversarial traffic with module and kernel faults behind
	// overload control (traffic.go).
	T1 = Kind[Event, TrafficRunConfig, TrafficResult]{prefix: "t1", draw: trafficEvents, run: RunTraffic}
)

// kinds is the table Replay dispatches a spec's prefix through.
var kinds = map[string]interface {
	replay(spec string, configs []any) (Replayed, error)
}{V1.prefix: V1, F1.prefix: F1, R1.prefix: R1, T1.prefix: T1}

// Generate derives the plane's fault schedule for class from a seed, every
// event enabled — a pure function, so the seed alone reproduces the plan.
func (k Kind[E, C, R]) Generate(seed uint64, class string) Schedule[E] {
	evs := k.draw(seed, class)
	return Schedule[E]{Prefix: k.prefix, Seed: seed, Class: class, Events: evs, Mask: 1<<uint(len(evs)) - 1}
}

// Parse reconstructs a schedule from its replay spec
// (<prefix>:<class>:<seed hex>:<mask hex>), regenerating the events from
// the seed and applying the mask. All failures are *SpecError.
func (k Kind[E, C, R]) Parse(spec string) (Schedule[E], error) {
	class, seed, mask, err := splitSpec(spec, k.prefix)
	if err != nil {
		return Schedule[E]{}, err
	}
	c, ok := caseByName(class)
	if !ok {
		return Schedule[E]{}, &SpecError{Spec: spec, Field: "class",
			Msg: fmt.Sprintf("unknown class %q", class)}
	}
	if k.module && c.NewModule == nil {
		return Schedule[E]{}, &SpecError{Spec: spec, Field: "class",
			Msg: fmt.Sprintf("class %q has no upgradable module", class)}
	}
	s := k.Generate(seed, class)
	// Silently truncating a mask with bits beyond the generated events
	// would replay a different, smaller fault plan that still claims to be
	// the reproducer; refuse it outright.
	if mask&^s.Mask != 0 {
		return Schedule[E]{}, &SpecError{Spec: spec, Field: "mask",
			Msg: fmt.Sprintf("mask %x has bits beyond the %d generated events", mask, len(s.Events))}
	}
	s.Mask = mask
	return s, nil
}

// splitSpec validates the common spec shape and returns its fields. All
// failures are *SpecError.
func splitSpec(spec, prefix string) (class string, seed, mask uint64, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 || parts[0] != prefix {
		return "", 0, 0, &SpecError{Spec: spec, Field: "shape",
			Msg: fmt.Sprintf("want %s:<class>:<seed>:<mask>", prefix)}
	}
	if parts[1] == "" {
		return "", 0, 0, &SpecError{Spec: spec, Field: "class", Msg: "empty"}
	}
	seed, err = strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return "", 0, 0, &SpecError{Spec: spec, Field: "seed", Msg: err.Error()}
	}
	mask, err = strconv.ParseUint(parts[3], 16, 64)
	if err != nil {
		return "", 0, 0, &SpecError{Spec: spec, Field: "mask", Msg: err.Error()}
	}
	return parts[1], seed, mask, nil
}
