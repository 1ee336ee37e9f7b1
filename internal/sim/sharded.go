// Sharded is the parallel intra-machine executor: N independent Engines
// (shards), each owning a disjoint slice of the simulated machine, advancing
// concurrently between cross-shard interactions and synchronizing only at
// message boundaries via a deterministic epoch-merge protocol.
//
// The protocol is conservative (no rollback). Cross-shard messages carry a
// minimum latency — the lookahead, physically the cross-domain IPI/wake
// latency — so an epoch bounded by `lookahead` of virtual time can run every
// shard to the epoch end with no shard observing another's state: any
// message generated inside the epoch is due at or after the epoch boundary.
// At each boundary the coordinator merges all outboxes and delivers due
// messages in a single deterministic order: lowest timestamp first, ties
// broken by destination shard index, then source shard index, then send
// sequence. Because shards share no mutable state inside an epoch and the
// merge order is a pure function of the message set, the parallel run is
// bit-identical to driving the same shards serially — SetParallel flips
// goroutine fan-out on and off without changing a single event, which is
// what the serial-vs-parallel record-log identity tests pin.
//
// Messages destined for one shard at one instant are drained by a single
// engine event bracketed by the batch hooks, so one merge round covers a
// whole shard's deliveries (the kernel points the hooks at its IPI batch
// window: one flush per shard per epoch instead of one kick per message).
//
// Shard-to-shard sends (Send) carry a closure, run inside the destination
// shard. Injections from outside every shard (Inject) carry a typed Msg
// record instead, delivered to the one handler the executor's owner
// registers with SetInjectHandler.
package sim

import (
	"fmt"
	"math"

	"enoki/internal/ktime"
)

// maxTime is the largest representable virtual instant.
const maxTime = ktime.Time(math.MaxInt64)

// MsgKind tags a message record. Its meaning belongs to the destination's
// handler, except KindKill, which the fleet executor handles itself.
type MsgKind uint8

// KindKill is the fleet's own fail-stop record: committing it kills the
// destination node (see Fleet.Kill). It must ride Fleet.Send, and no
// handler ever sees it.
const KindKill MsgKind = math.MaxUint8

// Msg is a typed message record: a kind plus three int32 words whose
// meaning the kind defines. A record holds no closure and no pointer, so
// sending one allocates nothing and the executors keep it inline in their
// fixed-size message slots.
type Msg struct {
	Kind    MsgKind
	A, B, C int32
}

// smsg is one cross-shard or cross-node message. The (at, to, from, seq)
// tuple is the total delivery order: seq is monotonic per source for the
// life of the executor — never wrapped, never reset between epochs or runs
// — so two distinct messages can never compare equal. A per-epoch or
// per-run seq reset would silently break the byte-identity guarantee: two
// same-instant messages from one source would tie, and the sort (which is
// not stable across heapsort/insertion regimes) could order them
// differently between the serial and parallel drives. TestSmsgOrderTotal
// pins the totality; TestShardedSeqMonotonicAcrossEpochs pins the no-reset
// property.
//
// The payload is either fn (Sharded.Send) or the record fields (every other
// send). They sit in the space int32 endpoints leave free, so the slot
// stays 48 bytes; TestMessageRecordSizes pins that.
type smsg struct {
	at       ktime.Time
	seq      uint64
	fn       func()
	to, from int32
	a, b, c  int32
	kind     MsgKind
	// handoff marks a fleet-level commitment as a pure handoff
	// (Fleet.SendHandoff): the handler only schedules work on the
	// destination executor at the message instant, so the fleet may commit
	// it a whole epoch window early. Unset, the commitment runs at the
	// first productive point at or after its instant (Fleet.Send).
	// Shard-level messages never set it.
	handoff bool
}

// record returns the message's typed payload.
func (m *smsg) record() Msg { return Msg{Kind: m.kind, A: m.a, B: m.b, C: m.c} }

// recordMsg builds the slot of a record message.
func recordMsg(at ktime.Time, to, from int, seq uint64, m Msg) smsg {
	return smsg{at: at, seq: seq, to: int32(to), from: int32(from),
		a: m.A, b: m.B, c: m.C, kind: m.Kind}
}

func (a smsg) less(b smsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.to != b.to {
		return a.to < b.to
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// inbox is one shard's delivery ring: messages the coordinator has committed
// for delivery, drained FIFO by the shard's drain event.
type inbox struct {
	q    []smsg
	head int
}

// Sharded runs n Engines under the epoch-merge protocol.
type Sharded struct {
	shards    []*Engine
	lookahead ktime.Duration
	parallel  bool
	now       ktime.Time // global floor: every shard clock sits here between epochs

	pending []smsg   // undelivered messages, sorted by (at, to, from, seq)
	out     [][]smsg // per-shard outboxes, owned by the shard during an epoch
	sendSeq []uint64
	extSeq  uint64 // Inject sequence (source -1) — monotonic, never reset
	in      []inbox
	drainFn []func()
	handler func(shard int, m Msg)

	beginHook, endHook func(shard int)

	// Worker goroutines for the parallel drive, started lazily.
	started bool
	cmds    []chan ktime.Time
	ack     chan struct{}

	epochs    uint64
	delivered uint64
}

// NewSharded builds a sharded executor with n shards and the given
// lookahead: the minimum virtual-time latency of every cross-shard message,
// and therefore the epoch length. A larger lookahead means fewer merge
// rounds; it must not exceed the real latency of the interactions being
// modelled.
func NewSharded(n int, lookahead ktime.Duration) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	s := &Sharded{
		lookahead: lookahead,
		shards:    make([]*Engine, n),
		out:       make([][]smsg, n),
		sendSeq:   make([]uint64, n),
		in:        make([]inbox, n),
		drainFn:   make([]func(), n),
	}
	for i := 0; i < n; i++ {
		s.shards[i] = New()
		i := i
		s.drainFn[i] = func() { s.drain(i) }
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's engine. Between runs it may be used freely
// (setup, spawning); during a parallel run it belongs to its worker
// goroutine.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Lookahead returns the epoch length / minimum cross-shard latency.
func (s *Sharded) Lookahead() ktime.Duration { return s.lookahead }

// Now returns the global virtual-time floor (all shards are at or past it).
func (s *Sharded) Now() ktime.Time { return s.now }

// Epochs returns how many merge rounds have run.
func (s *Sharded) Epochs() uint64 { return s.epochs }

// MsgsSent returns how many cross-shard messages were submitted. (The
// per-shard send sequences are the counters, so the sum is race-free to
// maintain; read it between runs.)
func (s *Sharded) MsgsSent() uint64 {
	var n uint64
	for _, sq := range s.sendSeq {
		n += sq
	}
	return n
}

// MsgsDelivered returns how many cross-shard messages were delivered.
func (s *Sharded) MsgsDelivered() uint64 { return s.delivered }

// EventsFired sums the event counts of every shard.
func (s *Sharded) EventsFired() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.Fired()
	}
	return n
}

// SetParallel selects the drive mode: true fans each epoch out to one
// worker goroutine per shard, false runs shards in index order on the
// caller's goroutine. Both produce bit-identical simulations; serial is the
// reference the identity tests compare against.
func (s *Sharded) SetParallel(on bool) { s.parallel = on }

// SetBatchHooks installs the pair bracketing every per-shard delivery
// drain: begin before the first message of a (shard, instant) batch, end
// after the last. The kernel points these at its IPI batch window.
func (s *Sharded) SetBatchHooks(begin, end func(shard int)) {
	s.beginHook, s.endHook = begin, end
}

// Send submits fn for execution on shard `to` at absolute virtual time
// `at`. It must be called from shard `from`'s execution context (or between
// runs), and `at` must be at least the sender's now plus the lookahead —
// sending earlier would let a message land in a shard's past, which is
// exactly the race the epoch protocol exists to exclude, so it panics.
func (s *Sharded) Send(from, to int, at ktime.Time, fn func()) {
	if min := s.shards[from].Now().Add(s.lookahead); at < min {
		panic(fmt.Sprintf("sim: cross-shard send at %v under lookahead floor %v (shard %d → %d)",
			at, min, from, to))
	}
	s.sendSeq[from]++
	s.out[from] = append(s.out[from], smsg{at: at, to: int32(to), from: int32(from), seq: s.sendSeq[from], fn: fn})
}

// SetInjectHandler registers the function every injected record is
// delivered to: h runs inside shard `shard`'s execution context at the
// record's instant. Register it once, before the first Inject.
func (s *Sharded) SetInjectHandler(h func(shard int, m Msg)) { s.handler = h }

// Inject commits record m for delivery to the inject handler on shard `to`
// at absolute virtual time `at`, from outside every shard's execution
// context — the fleet-level coordinator between machine epochs, or test
// setup between runs. Injected
// messages join the ordinary pending set under the (at, to, from, seq)
// order with the reserved source -1, so at one instant they deliver before
// any shard's own traffic, in injection order (extSeq is monotonic for the
// executor's life, like every other sequence counter — see the smsg audit
// note). They drain through the same inbox/batch-hook machinery as
// cross-shard sends, so a burst of injected wakes coalesces IPIs exactly
// like a remote-wake burst.
//
// Unlike Send, Inject has no lookahead floor: the caller is the
// coordinator, every shard sits at or before `at`, and determinism comes
// from the caller itself being deterministic. Injecting into the past of
// the executor floor panics.
func (s *Sharded) Inject(to int, at ktime.Time, m Msg) {
	if at < s.now {
		panic(fmt.Sprintf("sim: Inject at %v before executor floor %v (shard %d)", at, s.now, to))
	}
	if s.handler == nil {
		panic("sim: Inject before SetInjectHandler")
	}
	s.extSeq++
	s.pending = append(s.pending, recordMsg(at, to, -1, s.extSeq, m))
	mergeNewSmsgs(s.pending, len(s.pending)-1)
}

// NextEventTime returns the earliest pending work across the whole sharded
// simulation — shard events and undelivered cross-shard messages — which is
// what a fleet-level coordinator needs to schedule productive epochs. Call
// it between runs (it merges outboxes).
func (s *Sharded) NextEventTime() (ktime.Time, bool) {
	s.collect()
	best, ok := s.minNextEvent()
	if len(s.pending) > 0 && (!ok || s.pending[0].at < best) {
		best, ok = s.pending[0].at, true
	}
	return best, ok
}

// drain is shard i's delivery event: it runs every inbox message due at the
// shard's current instant inside one batch-hook bracket.
func (s *Sharded) drain(i int) {
	ib := &s.in[i]
	now := s.shards[i].Now()
	if ib.head >= len(ib.q) || ib.q[ib.head].at != now {
		return // already drained by an earlier event at this instant
	}
	if s.beginHook != nil {
		s.beginHook(i)
	}
	for ib.head < len(ib.q) && ib.q[ib.head].at == now {
		m := &ib.q[ib.head]
		ib.head++
		if fn := m.fn; fn != nil {
			m.fn = nil
			fn()
		} else {
			s.handler(i, m.record())
		}
	}
	if s.endHook != nil {
		s.endHook(i)
	}
	if ib.head >= len(ib.q) {
		ib.q = ib.q[:0]
		ib.head = 0
	}
}

// deliver commits every pending message due at or before upTo: append to
// the destination inbox in merge order and post one drain event per
// (shard, instant) group.
func (s *Sharded) deliver(upTo ktime.Time) {
	n := 0
	for n < len(s.pending) && s.pending[n].at <= upTo {
		n++
	}
	for j := 0; j < n; j++ {
		m := s.pending[j]
		ib := &s.in[m.to]
		// One drain event per (to, at) group: the group is contiguous in
		// merge order, so a new group starts whenever the inbox tail
		// changes instant (or was empty).
		if len(ib.q) == 0 || ib.q[len(ib.q)-1].at != m.at {
			s.shards[m.to].PostAt(m.at, s.drainFn[m.to])
		}
		ib.q = append(ib.q, m)
		s.pending[j].fn = nil
		s.delivered++
	}
	if n > 0 {
		rest := copy(s.pending, s.pending[n:])
		for j := rest; j < len(s.pending); j++ {
			s.pending[j] = smsg{}
		}
		s.pending = s.pending[:rest]
	}
}

// collect merges every outbox into the pending set and restores the merge
// order.
func (s *Sharded) collect() {
	sorted := len(s.pending)
	for i := range s.out {
		if len(s.out[i]) > 0 {
			s.pending = append(s.pending, s.out[i]...)
			for j := range s.out[i] {
				s.out[i][j] = smsg{}
			}
			s.out[i] = s.out[i][:0]
		}
	}
	if len(s.pending) > sorted {
		mergeNewSmsgs(s.pending, sorted)
	}
}

// minNextEvent returns the earliest live event time across all shards.
func (s *Sharded) minNextEvent() (ktime.Time, bool) {
	best, ok := maxTime, false
	for _, e := range s.shards {
		if t, has := e.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runEpoch advances every shard to end, in parallel or serially.
func (s *Sharded) runEpoch(end ktime.Time) {
	s.epochs++
	if !s.parallel {
		for _, e := range s.shards {
			e.RunUntil(end)
		}
		return
	}
	if !s.started {
		s.cmds = make([]chan ktime.Time, len(s.shards))
		s.ack = make(chan struct{}, len(s.shards))
		for i := range s.shards {
			s.cmds[i] = make(chan ktime.Time)
			i := i
			go func() {
				for end := range s.cmds[i] {
					s.shards[i].RunUntil(end)
					s.ack <- struct{}{}
				}
			}()
		}
		s.started = true
	}
	for i := range s.cmds {
		s.cmds[i] <- end
	}
	for range s.cmds {
		<-s.ack
	}
}

// run is the epoch loop: deliver due messages, pick the next productive
// window, run it, merge the outboxes. With advance set, every shard clock
// finishes at exactly t (so back-to-back runs compose like Engine.RunUntil).
func (s *Sharded) run(t ktime.Time, advance bool) {
	// Pick up messages submitted between runs (setup-time Sends).
	s.collect()
	for {
		if len(s.pending) > 0 && s.pending[0].at <= s.now {
			s.deliver(s.now)
			continue
		}
		nextMsg := maxTime
		if len(s.pending) > 0 {
			nextMsg = s.pending[0].at
		}
		nextEv, hasEv := s.minNextEvent()
		next := nextMsg
		if hasEv && nextEv < next {
			next = nextEv
		}
		if next > t || next == maxTime {
			// Past the bound, or nothing exists at all (RunUntilIdle drained).
			break
		}
		// Jump dead time: start the epoch at the next thing that exists.
		start := s.now
		if next > start {
			start = next
		}
		if nextMsg <= start {
			// A message is due exactly at the epoch start; commit it first
			// so its drain event takes part in the epoch.
			s.deliver(start)
			continue
		}
		end := start.Add(s.lookahead)
		if end > t {
			end = t
		}
		if nextMsg < end {
			end = nextMsg
		}
		s.runEpoch(end)
		s.collect()
		s.now = end
	}
	if advance && s.now < t {
		s.runEpoch(t) // nothing is due: shards just move their clocks
		s.collect()
		s.now = t
	}
}

// RunUntil executes the simulation up to and including virtual time t; every
// shard's clock finishes at exactly t.
func (s *Sharded) RunUntil(t ktime.Time) { s.run(t, true) }

// RunUntilIdle executes until no shard has a pending event and no message is
// in flight.
func (s *Sharded) RunUntilIdle() { s.run(maxTime, false) }

// Close stops the worker goroutines of the parallel drive. The executor
// remains usable in serial mode afterwards.
func (s *Sharded) Close() {
	if !s.started {
		return
	}
	for i := range s.cmds {
		close(s.cmds[i])
	}
	s.started = false
	s.cmds = nil
}

// sortSmsgs sorts messages by (at, to, from, seq) without allocating:
// insertion sort for the short, nearly sorted common case, heapsort beyond.
func sortSmsgs(m []smsg) {
	if len(m) > 48 {
		heapsortSmsgs(m)
		return
	}
	insertionSortSmsgs(m)
}

func insertionSortSmsgs(m []smsg) {
	for i := 1; i < len(m); i++ {
		v := m[i]
		j := i - 1
		for j >= 0 && v.less(m[j]) {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = v
	}
}

// mergeNewSmsgs restores full order when m[:mid] is already sorted and
// [mid:] is a freshly appended tail: sort the tail alone, then fold it into
// the prefix by insertion. New messages are due at or after now+lookahead
// while the sorted prefix holds older traffic, so tail elements usually
// belong near the end and the fold moves almost nothing — the win over
// re-sorting the whole pending set on every merge (or every Inject), which
// turned large fleets quadratic. The (at, to, from, seq) order is total, so
// the result is identical to a full sort.
func mergeNewSmsgs(m []smsg, mid int) {
	sortSmsgs(m[mid:])
	for i := mid; i < len(m); i++ {
		v := m[i]
		j := i - 1
		for j >= 0 && v.less(m[j]) {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = v
	}
}

func heapsortSmsgs(m []smsg) {
	n := len(m)
	for i := n/2 - 1; i >= 0; i-- {
		siftSmsgs(m, i, n)
	}
	for i := n - 1; i > 0; i-- {
		m[0], m[i] = m[i], m[0]
		siftSmsgs(m, 0, i)
	}
}

func siftSmsgs(m []smsg, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && m[c].less(m[c+1]) {
			c++
		}
		if !m[root].less(m[c]) {
			return
		}
		m[root], m[c] = m[c], m[root]
		root = c
	}
}
