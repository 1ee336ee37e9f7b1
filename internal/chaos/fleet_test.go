package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fleetSpec is the pinned machine-failure reproducer: the whole campaign —
// two machine kills mid-run, the seeded job mix, the rescheduling that
// follows — replays from this one line. The seed was chosen so the kills
// land while placements are in flight (Lost > 0); if fleetEvents' draw
// logic changes, re-pick a seed with the same property.
const fleetSpec = "f1:wfq:5eed:3"

// TestFleetCampaignReplayFromSpec is the machine-failure chaos gate: the
// one-line spec string reconstructs the exact kill plan, the campaign loses
// placements to the kills and finishes every job on the survivors, and the
// serial and worker-goroutine fleet drives of the same spec agree on every
// control-plane outcome and every record-log byte.
func TestFleetCampaignReplayFromSpec(t *testing.T) {
	s, err := F1.Parse(fleetSpec)
	if err != nil {
		t.Fatalf("F1.Parse(%q): %v", fleetSpec, err)
	}
	if got := s.Spec(); got != fleetSpec {
		t.Fatalf("spec round-trip: %q -> %q", fleetSpec, got)
	}
	if len(s.Enabled()) != 2 {
		t.Fatalf("spec %q enables %d kills, want 2", fleetSpec, len(s.Enabled()))
	}

	serial := RunFleet(s, false)
	par := RunFleet(s, true)

	for _, v := range serial.Violations {
		t.Errorf("serial: %s", v)
	}
	for _, v := range par.Violations {
		t.Errorf("parallel: %s", v)
	}
	if serial.Stats != par.Stats {
		t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", serial.Stats, par.Stats)
	}
	if len(serial.Jobs) != len(par.Jobs) {
		t.Fatalf("job counts diverge: %d vs %d", len(serial.Jobs), len(par.Jobs))
	}
	for i := range serial.Jobs {
		if serial.Jobs[i] != par.Jobs[i] {
			t.Fatalf("job %d diverges:\nserial   %+v\nparallel %+v", i, serial.Jobs[i], par.Jobs[i])
		}
	}
	total := 0
	for mi := range serial.Logs {
		for sh := range serial.Logs[mi] {
			if !bytes.Equal(serial.Logs[mi][sh], par.Logs[mi][sh]) {
				t.Fatalf("machine %d shard %d: record logs diverge (%d vs %d bytes)",
					mi, sh, len(serial.Logs[mi][sh]), len(par.Logs[mi][sh]))
			}
			total += len(serial.Logs[mi][sh])
		}
	}
	if total == 0 {
		t.Fatal("record logs are empty — modules saw no scheduling traffic")
	}
	// The replay must exercise the failure path, or the identity proves
	// nothing about failover.
	if serial.Stats.Lost == 0 {
		t.Fatal("kills lost no placements — pick a seed whose kills land mid-flight")
	}
	if serial.Stats.MachinesAlive != fleetMachines-2 {
		t.Fatalf("machines alive = %d, want %d", serial.Stats.MachinesAlive, fleetMachines-2)
	}
}

// TestFleetCampaignMaskSubset pins the minimizer contract: masking off a
// kill removes exactly that fault from the replay, and the reduced campaign
// still upholds every invariant.
func TestFleetCampaignMaskSubset(t *testing.T) {
	s, err := F1.Parse("f1:wfq:5eed:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Enabled()) != 1 {
		t.Fatalf("mask 1 enables %d kills, want 1", len(s.Enabled()))
	}
	r := RunFleet(s, false)
	for _, v := range r.Violations {
		t.Errorf("masked campaign: %s", v)
	}
	if r.Stats.MachinesAlive != fleetMachines-1 {
		t.Fatalf("machines alive = %d, want %d", r.Stats.MachinesAlive, fleetMachines-1)
	}
}

// TestFleetSpecErrors pins the parser's rejection of malformed specs:
// every rejection is a *SpecError naming the offending field.
func TestFleetSpecErrors(t *testing.T) {
	for _, tc := range []struct{ spec, field string }{
		{"v1:wfq:5eed:3", "shape"},     // single-machine prefix on a fleet parser
		{"f1:nosuch:5eed:3", "class"},  // unknown class
		{"f1:wfq:zz:3", "seed"},        // bad seed hex
		{"f1:wfq:5eed:gg", "mask"},     // bad mask hex
		{"f1:wfq:5eed:ff", "mask"},     // mask beyond the generated kills
		{"f1:wfq:5eed", "shape"},       // missing mask
		{"f1:wfq:5eed:3:bad", "shape"}, // trailing part
	} {
		_, err := F1.Parse(tc.spec)
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("F1.Parse(%q) = %v, want a *SpecError on field %q", tc.spec, err, tc.field)
		}
	}
}

// TestFleetCampaignSeedsDiffer guards against the campaign ignoring its
// seed: different seeds must not produce identical runs.
func TestFleetCampaignSeedsDiffer(t *testing.T) {
	a := RunFleet(F1.Generate(0xa11ce, "wfq"), false)
	b := RunFleet(F1.Generate(0xf1ee7, "wfq"), false)
	if fmt.Sprint(a.Stats) == fmt.Sprint(b.Stats) && func() bool {
		for mi := range a.Logs {
			for sh := range a.Logs[mi] {
				if !bytes.Equal(a.Logs[mi][sh], b.Logs[mi][sh]) {
					return false
				}
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical fleet runs")
	}
}

// TestFleetReplay pins the f1: row of Replay: the pinned spec runs its
// serial drive and passes the oracle.
func TestFleetReplay(t *testing.T) {
	r, err := Replay(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() || r.Report[0] != "replay "+fleetSpec+"  class=wfq  events=[machine-kill[m4@3ms] machine-kill[m7@3ms]]" {
		t.Fatalf("replay of %s: %q", fleetSpec, r.Report)
	}
}
