package chaos

import (
	"errors"
	"strings"
	"testing"
)

// trafficSpec is a pinned healthy-looking spec used by the fuzz corpus and
// the parse tests.
const trafficSpec = "t1:shinjuku:2a:3"

func TestParseTrafficSpecRoundTrip(t *testing.T) {
	s, err := T1.Parse(trafficSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec() != trafficSpec {
		t.Fatalf("round-trip: %q != %q", s.Spec(), trafficSpec)
	}
	if len(s.Events) < 2 {
		t.Fatalf("generated only %d events", len(s.Events))
	}
	first := s.Events[0].Plane
	if first != PlaneTrafficFlash && first != PlaneTrafficAntag && first != PlaneTrafficChurn {
		t.Fatalf("first event %v is not a traffic shape", first)
	}
}

func TestParseTrafficSpecTypedErrors(t *testing.T) {
	for _, spec := range []string{
		"v1:shinjuku:2a:3",      // wrong prefix
		"t1:shinjuku:2a",        // truncated
		"t1::2a:3",              // empty class
		"t1:nosuch:2a:3",        // unknown class
		"t1:shinjuku:zz:3",      // bad seed
		"t1:shinjuku:2a:zz",     // bad mask
		"t1:shinjuku:2a:ffffff", // mask beyond events
	} {
		_, err := T1.Parse(spec)
		if err == nil {
			t.Fatalf("spec %q parsed", spec)
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("spec %q: error %v is not a *SpecError", spec, err)
		}
	}
}

func TestGenerateTrafficPure(t *testing.T) {
	a := T1.Generate(99, "shinjuku")
	b := T1.Generate(99, "shinjuku")
	if a.Spec() != b.Spec() || len(a.Events) != len(b.Events) {
		t.Fatal("T1.Generate is not pure")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestTrafficCampaignSmoke is the CI campaign: 30 seeded traffic × fault
// schedules across every class must uphold every invariant.
func TestTrafficCampaignSmoke(t *testing.T) {
	res := Campaign(T1, CampaignConfig[TrafficRunConfig]{Runs: 30, Seed: 1})
	if !res.OK() {
		f := res.Failures[0]
		t.Fatalf("campaign found %d failures; first: %v (replay: %s)",
			len(res.Failures), f.Result.Violations, f.Replay)
	}
	if res.Runs != 30 {
		t.Fatalf("ran %d of 30", res.Runs)
	}
}

// TestTrafficLeakShedCaughtAndMinimized pins the seeded overload bug: with
// LeakShed planted, a flash-crowd schedule breaks conservation, the oracle
// reports it, ddmin shrinks the schedule, and the shrunk spec still
// reproduces — the full find→shrink→replay loop on the traffic plane.
func TestTrafficLeakShedCaughtAndMinimized(t *testing.T) {
	rc := TrafficRunConfig{LeakShed: true}
	res := Campaign(T1, CampaignConfig[TrafficRunConfig]{
		Runs: 12, Seed: 1, MaxFailures: 1, Run: rc,
		Classes: []string{"shinjuku"},
	})
	if res.OK() {
		t.Fatal("LeakShed campaign found no conservation break")
	}
	f := res.Failures[0]
	found := false
	for _, v := range f.Result.Violations {
		if strings.Contains(v, "conservation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure is not a conservation break: %v", f.Result.Violations)
	}
	if f.Minimized.EnabledCount() > f.Result.Schedule.EnabledCount() {
		t.Fatal("ddmin grew the schedule")
	}
	// The minimized spec replays to the same failure.
	s, err := T1.Parse(f.Minimized.Spec())
	if err != nil {
		t.Fatalf("minimized spec does not parse: %v", err)
	}
	s.Mask = f.Minimized.Mask
	again := RunTraffic(s, rc)
	if !again.Failed() {
		t.Fatalf("replay of %s passed", f.Replay)
	}
	// Without the planted bug the same schedule is clean: the failure is
	// the seeded bug, not the schedule.
	clean := RunTraffic(f.Minimized, TrafficRunConfig{})
	if clean.Failed() {
		t.Fatalf("schedule fails even without LeakShed: %v", clean.Violations)
	}
}

// TestRunTrafficDeterministic pins that a run is a pure function of its
// schedule: same spec, same totals, fingerprint included.
func TestRunTrafficDeterministic(t *testing.T) {
	s := T1.Generate(7, "shinjuku")
	a := RunTraffic(s, TrafficRunConfig{})
	b := RunTraffic(s, TrafficRunConfig{})
	if a.Report.Fingerprint() != b.Report.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", a.Report.Fingerprint(), b.Report.Fingerprint())
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
}

// TestTrafficReplay pins the t1: row of Replay: the pinned spec breaks
// conservation only with the LeakShed bug planted.
func TestTrafficReplay(t *testing.T) {
	leak, err := Replay(trafficSpec, TrafficRunConfig{LeakShed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !leak.Failed() || !strings.Contains(leak.Violations[0], "conservation") {
		t.Fatalf("LeakShed replay of %s: %q", trafficSpec, leak.Report)
	}
	if clean, err := Replay(trafficSpec); err != nil || clean.Failed() {
		t.Fatalf("clean replay of %s: %v %v", trafficSpec, err, clean.Violations)
	}
}
