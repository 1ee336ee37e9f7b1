package sim

import (
	"testing"
	"unsafe"
)

// TestMessageRecordSizes pins the size of the executor's two hot records.
// Every event and every in-flight message occupies one of them, so growth
// here shows up directly in the benchmark's bytes_per_unit on edge-flash,
// whose million connections each cost several events and messages. A
// payload belongs in the slack smsg already has (int32 endpoints, record
// words and two flag bytes in 40), not in a wider slot.
func TestMessageRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(smsg{}); got != 40 {
		t.Errorf("smsg is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Errorf("Event is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Msg{}); got != 16 {
		t.Errorf("Msg is %d bytes, want 16", got)
	}
}
