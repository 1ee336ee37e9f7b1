package sim

import "enoki/internal/ktime"

// Inbox queues the records an Executor commits for one Engine and runs them
// on that engine at their instants. Push is shaped like an Executor handler
// (ex.SetHandler(node, ib.Push)); it runs on the coordinator and only
// queues. Every record due at one instant — one (engine, instant) group,
// contiguous in merge order — is handed to the callback as one engine
// event, so the owner can bracket a whole group (the sharded kernel opens
// one IPI batch window per group: one flush per shard per instant instead
// of one kick per message). One recycled event per instant, no allocation
// per record.
type Inbox struct {
	eng   *Engine
	at    []ktime.Time // at[i] is the due instant of q[i]
	q     []Msg
	head  int // next record to hand over
	fn    func(group []Msg)
	drain func()
}

// NewInbox builds an inbox on eng whose groups go to fn. fn runs inside
// eng's execution context at the group's instant; the slice is only valid
// for the call.
func NewInbox(eng *Engine, fn func(group []Msg)) *Inbox {
	ib := &Inbox{eng: eng, fn: fn}
	ib.drain = ib.run
	return ib
}

// Push queues m for delivery at `at`, posting the drain event when m opens
// a new instant.
func (ib *Inbox) Push(at ktime.Time, m Msg) {
	if n := len(ib.at); n == 0 || ib.at[n-1] != at {
		ib.eng.PostAt(at, ib.drain)
	}
	ib.at = append(ib.at, at)
	ib.q = append(ib.q, m)
}

// run is the drain event: it hands every record due at the engine's current
// instant to fn as one group.
func (ib *Inbox) run() {
	now := ib.eng.Now()
	end := ib.head
	for end < len(ib.q) && ib.at[end] == now {
		end++
	}
	if end == ib.head {
		return // already drained by an earlier event at this instant
	}
	group := ib.q[ib.head:end]
	ib.head = end
	ib.fn(group)
	if ib.head >= len(ib.q) {
		ib.at = ib.at[:0]
		ib.q = ib.q[:0]
		ib.head = 0
	}
}
