package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The spec parser is the one place the chaos package consumes untrusted
// input: a spec string pasted from a CI log, a bug report, or a shell
// history. FuzzParseSpec feeds every input to all four planes' parsers and
// pins, for each: parsing never panics, every rejection is a *SpecError,
// an accepted mask stays within the generated events, the events have the
// plane's shape, and any spec that parses round-trips byte for byte —
// rendering the schedule and re-parsing it reproduces the identical fault
// plan and the identical spec, so a one-line reproducer can never silently
// drift.

func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		// r1:
		rolloutSpec, "r1:fifo:dead:1", "r1:shinjuku:5eed7:3", "r1:wfq:ffffffffffffffff:7",
		"r1:cfs:9:7", "f1:wfq:9:7", "r1:wfq:9:ffff", "r1:wfq:9", "r1::9:7", "r1:wfq:+9:7",
		"r1:wfq:9:7:", "r1:wfq:9:7\n",
		// t1:
		trafficSpec, "t1:fifo:1:1", "t1:cfs:abc:3", "t1:shinjuku:5eed7:7", "t1:wfq:ffffffffffffffff:f",
		"v1:shinjuku:2a:3", "t1:shinjuku:2a:ffff", "t1::2a:3", "t1:shinjuku:+2a:3", "t1:shinjuku:2a:3:",
		"t1:shinjuku:2a:3\n",
		// f1:
		fleetSpec, "f1:fifo:1:1", "f1:cfs:abc:3", "f1:wfq:ffffffffffffffff:7", "v1:wfq:5eed:3",
		"f1:wfq:5eed:ffff", "f1:wfq::3", "f1:wfq:5eed:0x3", "f1:wfq:5eed:3 ",
		// v1:
		"v1:fifo:ba29107d460d80ee:1", "v1:cfs:1:3", "v1:arbiter:63:7", "v1:wfq:7:1f", "v1:wfq:7:ff",
		"v1:nosuch:1:1", "V1:wfq:7:1", "v1:wfq:07:1",
	} {
		f.Add(spec)
	}
	checks := []func(*testing.T, string){
		parseCheck(V1, machineShape),
		parseCheck(F1, fleetShape),
		parseCheck(R1, rolloutShape),
		parseCheck(T1, trafficShape),
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, check := range checks {
			check(t, spec)
		}
	})
}

// parseCheck pins the parser properties for plane k, with shape judging
// the plane-specific form of an accepted schedule's events.
func parseCheck[E, C any, R outcome](k Kind[E, C, R], shape func(Schedule[E]) error) func(*testing.T, string) {
	return func(t *testing.T, spec string) {
		s, err := k.Parse(spec)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("%s: spec %q: rejection %v is not a *SpecError", k.prefix, spec, err)
			}
			return
		}
		if s.Mask&^(1<<uint(len(s.Events))-1) != 0 {
			t.Fatalf("spec %q: mask %x exceeds %d events", spec, s.Mask, len(s.Events))
		}
		if err := shape(s); err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		again, err := k.Parse(s.Spec())
		if err != nil {
			t.Fatalf("round-trip of %q failed: rendered %q does not parse: %v", spec, s.Spec(), err)
		}
		if !reflect.DeepEqual(s, again) || again.Spec() != s.Spec() {
			t.Fatalf("round-trip of %q diverged:\nfirst  %+v\nsecond %+v", spec, s, again)
		}
	}
}

// machineShape: two to five single-machine planes, module planes only for
// classes with a module, hint storms only for classes with hint support.
func machineShape(s Schedule[Event]) error {
	if n := len(s.Events); n < 2 || n > 5 {
		return fmt.Errorf("%d events, want 2..5", n)
	}
	c, _ := caseByName(s.Class)
	for _, ev := range s.Events {
		switch ev.Plane {
		case PlaneIPIDrop, PlaneIPIDelay, PlaneIPIDup, PlaneTimerSkew:
		case PlanePanic, PlaneStall, PlaneForge, PlaneUpgrade, PlaneUpgradeKill, PlaneHintStorm:
			if c.NewModule == nil || ev.Plane == PlaneHintStorm && !c.SupportsHints {
				return fmt.Errorf("plane %v drawn for class %s", ev.Plane, s.Class)
			}
		default:
			return fmt.Errorf("plane %v cannot appear in a v1: schedule", ev.Plane)
		}
	}
	return nil
}

// fleetShape: every kill names a distinct machine at a positive time.
func fleetShape(s Schedule[FleetEvent]) error {
	seen := map[int]bool{}
	for _, ev := range s.Events {
		if ev.Machine < 0 || ev.Machine >= fleetMachines || ev.At <= 0 {
			return fmt.Errorf("malformed kill %+v", ev)
		}
		if seen[ev.Machine] {
			return fmt.Errorf("machine %d killed twice", ev.Machine)
		}
		seen[ev.Machine] = true
	}
	return nil
}

// rolloutShape: only the three rollout planes, each with sane parameters.
func rolloutShape(s Schedule[RolloutEvent]) error {
	for _, ev := range s.Events {
		switch ev.Plane {
		case PlaneRolloutKill:
			if ev.Machine < 0 || ev.Machine >= fleetMachines || ev.At <= 0 {
				return fmt.Errorf("malformed kill %+v", ev)
			}
		case PlaneRolloutFaulty:
			if ev.Threshold <= 0 || ev.Threshold >= fleetMachines {
				return fmt.Errorf("malformed faulty threshold %+v", ev)
			}
		case PlaneRolloutDelayDetect:
			if ev.Delay <= 0 || time.Duration(ev.Delay) > 10*time.Millisecond {
				return fmt.Errorf("malformed detect delay %+v", ev)
			}
		default:
			return fmt.Errorf("non-rollout plane %v in schedule", ev.Plane)
		}
	}
	return nil
}

// trafficShape: a traffic shape first, then shapes or the module and
// kernel planes a traffic run arms.
func trafficShape(s Schedule[Event]) error {
	for i, ev := range s.Events {
		switch ev.Plane {
		case PlaneTrafficFlash, PlaneTrafficAntag, PlaneTrafficChurn:
			if ev.At <= 0 || ev.Dur <= 0 || ev.Count < 1 {
				return fmt.Errorf("malformed shape %+v", ev)
			}
		case PlanePanic, PlaneStall, PlaneIPIDrop, PlaneIPIDelay, PlaneTimerSkew:
			if i == 0 {
				return fmt.Errorf("first event %v is not a traffic shape", ev.Plane)
			}
		default:
			return fmt.Errorf("plane %v cannot appear in a traffic schedule", ev.Plane)
		}
	}
	return nil
}
