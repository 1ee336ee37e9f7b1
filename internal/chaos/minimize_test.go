package chaos

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// synthetic is a simulator-free run outcome: the verdict alone.
type synthetic bool

func (s synthetic) Failed() bool { return bool(s) }

// TestMinimizeDDmin pins the ddmin loop itself against synthetic run
// functions: it shrinks to exactly the events the failure needs, returns a
// passing schedule unchanged, and never clears the last enabled event.
func TestMinimizeDDmin(t *testing.T) {
	s := Schedule[int]{Prefix: "x1", Events: []int{0, 1, 2, 3, 4}, Mask: 0b11111}
	runner := func(fails func(Schedule[int]) bool) func(Schedule[int], struct{}) synthetic {
		return func(trial Schedule[int], _ struct{}) synthetic {
			if trial.EnabledCount() == 0 {
				t.Fatalf("ddmin ran a schedule with every event cleared")
			}
			return synthetic(fails(trial))
		}
	}

	min, res := Minimize(s, struct{}{}, runner(func(s Schedule[int]) bool { return s.EnabledAt(1) && s.EnabledAt(3) }))
	if min.Mask != 0b01010 || !res.Failed() {
		t.Errorf("fails iff events 1 and 3: minimized to %05b (failed=%v), want 01010", min.Mask, res.Failed())
	}

	pass, res := Minimize(s, struct{}{}, runner(func(Schedule[int]) bool { return false }))
	if !reflect.DeepEqual(pass, s) || res.Failed() {
		t.Errorf("passing schedule came back as %+v (failed=%v), want it unchanged", pass, res.Failed())
	}

	last, res := Minimize(s, struct{}{}, runner(func(Schedule[int]) bool { return true }))
	if last.EnabledCount() != 1 || !res.Failed() {
		t.Errorf("always-failing schedule minimized to %05b, want exactly one event left", last.Mask)
	}
}

// TestReplayDispatch pins Replay's prefix table on the v1: plane and its
// rejection of specs no plane claims.
func TestReplayDispatch(t *testing.T) {
	const spec = "v1:fifo:ba29107d460d80ee:1"
	buggy, err := Replay(spec, RunConfig{NoRollback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !buggy.Failed() || !strings.HasPrefix(buggy.Report[0], "replay "+spec) {
		t.Errorf("-norollback replay of %s: failed=%v report %q", spec, buggy.Failed(), buggy.Report)
	}
	if shipped, err := Replay(spec); err != nil || shipped.Failed() {
		t.Errorf("shipped replay of %s: %v %v", spec, err, shipped.Violations)
	}
	for _, bad := range []string{"", "x1:wfq:1:1", "v2:wfq:1:1", "bogus"} {
		var se *SpecError
		if _, err := Replay(bad); !errors.As(err, &se) || se.Field != "shape" {
			t.Errorf("Replay(%q) = %v, want a shape *SpecError", bad, err)
		}
	}
}
