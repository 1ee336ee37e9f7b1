// Executor is the conservative epoch executor: it runs N member
// simulations — anything implementing Node: an Engine, a sharded kernel, or
// another Executor — concurrently between interactions and synchronizes them
// only at message boundaries via a deterministic epoch-merge protocol. The
// same type serves both levels of the simulator: one machine's NUMA shards
// (one Engine per node, the lookahead the cross-socket IPI latency) and a
// whole fleet (one sharded machine per node plus a control-plane engine, the
// lookahead the network latency). A fleet of machines is an Executor whose
// nodes contain Executors.
//
// The protocol is conservative (no rollback). Every message carries a
// minimum latency — the lookahead — so an epoch bounded by `lookahead` of
// virtual time can run every node to the epoch end with no node observing
// another's state: any message generated inside the epoch is due at or
// after the epoch boundary. At each boundary the coordinator merges all
// outboxes and commits due messages in one deterministic order: lowest
// timestamp first, ties broken by destination node, then source id, then
// per-source send sequence. Sources are registered explicitly (AddSource),
// so one node can expose several independent send contexts — one per
// internal shard of a machine — and a send from any of them is race-free
// under both this executor's and the node's own parallel drive. Because
// nodes share no mutable state inside an epoch and the merge order is a
// pure function of the message set, the parallel drive is bit-identical to
// driving the same nodes serially — SetParallel flips goroutine fan-out on
// and off without changing a single event, which is what the
// serial-vs-parallel identity tests pin.
//
// Every message is a typed record (Msg): a kind plus three int32 words, with
// no closure, so a send allocates nothing. A committed record goes to its
// destination node's handler (SetHandler), which runs on the coordinator
// goroutine at the epoch boundary, while every node is quiescent at the
// global floor. The handler's job is to hand the payload to the node's own
// deterministic executor — an Inbox on an Engine, Inject on a nested
// Executor — for execution at the delivery instant inside that node's
// context: the executor commits, the node executes.
//
// Fail-stop node failure is part of the protocol: Kill freezes a node at the
// current floor. A dead node no longer advances, its pending events never
// fire, and messages addressed to it are dropped at commitment time (counted
// in MsgsDropped). A KindKill record is the executor's own message:
// committing it kills its destination, with no handler involved. Because
// kills are delivered as ordinary messages they land on an epoch boundary at
// the same virtual instant in serial and parallel drives, so a
// machine-failure campaign is as reproducible as a healthy run.
package sim

import (
	"fmt"
	"math"

	"enoki/internal/ktime"
)

// maxTime is the largest representable virtual instant.
const maxTime = ktime.Time(math.MaxInt64)

// MsgKind tags a message record. Its meaning belongs to the destination's
// handler, except KindKill, which the executor handles itself.
type MsgKind uint8

// KindKill is the executor's own fail-stop record: committing it kills the
// destination node (see Executor.Kill). It must ride Executor.Send, and no
// handler ever sees it.
const KindKill MsgKind = math.MaxUint8

// Msg is a typed message record: a kind plus three int32 words whose
// meaning the kind defines. A record holds no closure and no pointer, so
// sending one allocates nothing and the executor keeps it inline in its
// fixed-size message slots.
type Msg struct {
	Kind    MsgKind
	A, B, C int32
}

// smsg is one in-flight message. The (at, to, from, seq) tuple is the total
// delivery order: seq is monotonic per source for the life of the executor
// — never wrapped, never reset between epochs or runs — so two distinct
// messages can never compare equal. A per-epoch or per-run seq reset would
// silently break the byte-identity guarantee: two same-instant messages
// from one source would tie, and the sort (which is not stable across
// heapsort/insertion regimes) could order them differently between the
// serial and parallel drives. TestSmsgOrderTotal pins the totality;
// TestShardedSeqMonotonicAcrossEpochs and TestFleetSeqMonotonicAcrossRuns
// pin the no-reset property.
//
// The record words sit beside the int32 endpoints, so the slot is 40
// bytes; TestMessageRecordSizes pins that.
type smsg struct {
	at       ktime.Time
	seq      uint64
	to, from int32
	a, b, c  int32
	kind     MsgKind
	// handoff marks a pure-handoff commitment (SendHandoff): the handler
	// only schedules work on the destination at the message instant, so
	// the executor may commit it a whole epoch window early. Unset, the
	// commitment runs at the floor of its own instant (Send, Inject).
	handoff bool
}

// record returns the message's typed payload.
func (m *smsg) record() Msg { return Msg{Kind: m.kind, A: m.a, B: m.b, C: m.c} }

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

// Node is one member simulation of an Executor: it can report its clock and
// earliest pending work, and advance deterministically to a bound (moving
// its clock to exactly the bound even when idle, like Engine.RunUntil).
// Engine, Executor and kernel.ShardedKernel all satisfy it.
type Node interface {
	Now() ktime.Time
	RunUntil(t ktime.Time)
	NextEventTime() (ktime.Time, bool)
}

// Executor runs N Nodes under the epoch-merge protocol.
type Executor struct {
	nodes     []Node
	handlers  []func(at ktime.Time, m Msg)
	dead      []bool
	lookahead ktime.Duration
	parallel  bool
	now       ktime.Time // global floor: every live node clock sits here between epochs

	pending   []smsg   // undelivered messages, sorted by (at, to, from, seq)
	floorMsgs int      // pending non-handoff messages (each chops an epoch window)
	out       [][]smsg // per-source outboxes, owned by the source's node during an epoch
	sendSeq   []uint64 // per-source monotonic counters — never reset (ordering audit)
	srcNode   []int    // source id → owning node
	extSeq    uint64   // Inject sequence (source -1) — monotonic, never reset

	// Worker goroutines for the parallel drive, started lazily.
	started bool
	cmds    []chan ktime.Time
	ack     chan struct{}

	epochs    uint64
	delivered uint64
	dropped   uint64
}

// NewExecutor builds an epoch executor with the given lookahead: the
// minimum virtual-time latency of every message between nodes, and
// therefore the epoch length. A larger lookahead means fewer merge rounds;
// it must not exceed the real latency of the interactions being modelled.
func NewExecutor(lookahead ktime.Duration) *Executor {
	if lookahead <= 0 {
		panic("sim: NewExecutor needs a positive lookahead")
	}
	return &Executor{lookahead: lookahead}
}

// AddNode registers a member simulation and returns its node index. Nodes
// must be added before the first run.
func (e *Executor) AddNode(n Node) int {
	if e.now != 0 || e.epochs != 0 {
		panic("sim: Executor.AddNode after the executor started running")
	}
	e.nodes = append(e.nodes, n)
	e.handlers = append(e.handlers, nil)
	e.dead = append(e.dead, false)
	return len(e.nodes) - 1
}

// SetHandler registers the function every record committed for node is
// delivered to. h runs on the coordinator with every node quiescent at the
// floor and receives the record's due instant; it is called once per
// record, in merge order. Register it once, before the first run.
func (e *Executor) SetHandler(node int, h func(at ktime.Time, m Msg)) { e.handlers[node] = h }

// AddSource allocates a send context owned by node. Sends from one source
// must be serialized by the caller (use one source per independent execution
// context — e.g. one per internal shard of a machine); distinct sources are
// independent and may send concurrently.
func (e *Executor) AddSource(node int) int {
	e.out = append(e.out, nil)
	e.sendSeq = append(e.sendSeq, 0)
	e.srcNode = append(e.srcNode, node)
	return len(e.out) - 1
}

// Lookahead returns the epoch length / minimum message latency.
func (e *Executor) Lookahead() ktime.Duration { return e.lookahead }

// Now returns the global virtual-time floor (every live node is at or past
// it).
func (e *Executor) Now() ktime.Time { return e.now }

// Epochs returns how many merge rounds have run.
func (e *Executor) Epochs() uint64 { return e.epochs }

// MsgsSent returns how many messages the registered sources submitted
// (injections excluded). The per-source send sequences are the counters, so
// the sum is race-free to maintain; read it between runs.
func (e *Executor) MsgsSent() uint64 {
	var n uint64
	for _, sq := range e.sendSeq {
		n += sq
	}
	return n
}

// MsgsDelivered returns how many messages were committed to a live node.
func (e *Executor) MsgsDelivered() uint64 { return e.delivered }

// MsgsDropped returns how many messages were dropped because their
// destination node was dead at commitment time.
func (e *Executor) MsgsDropped() uint64 { return e.dropped }

// Alive reports whether node i has not been killed.
func (e *Executor) Alive(i int) bool { return !e.dead[i] }

// Kill freezes node i at the current floor: it stops advancing, its pending
// events never fire, and undelivered messages addressed to it are dropped.
// Call it between runs; the deterministic way to fail a node at a virtual
// instant is to Send it a KindKill record. Killing a dead node is a no-op.
func (e *Executor) Kill(i int) { e.dead[i] = true }

// SetParallel selects the drive mode: true fans each epoch out to one worker
// goroutine per node, false runs nodes in index order on the caller's
// goroutine. Both produce bit-identical simulations; serial is the
// reference the identity tests compare against.
func (e *Executor) SetParallel(on bool) { e.parallel = on }

// Send submits record m for commitment toward node `to` at absolute virtual
// time `at`. It must be called from source src's execution context (or
// between runs), and `at` must be at least the source node's now plus the
// lookahead — sending earlier would let a message land in a node's past,
// which is exactly the race the epoch protocol exists to exclude, so it
// panics. The record is committed on the coordinator at the floor of its
// own instant, with every node quiescent there — so its handler may observe
// executor and node state as of the delivery instant (KindKill rides Send
// for exactly this reason). Each distinct Send instant ends an epoch
// window; high-rate traffic whose handlers are pure handoffs should use
// SendHandoff instead, which commits early and keeps the windows wide.
func (e *Executor) Send(src, to int, at ktime.Time, m Msg) {
	e.send(src, to, at, m, false)
}

// SendHandoff is Send for pure-handoff commitments: the destination's
// handler must confine itself to scheduling work on the node at `at`
// (Inbox.Push, Executor.Inject) without reading the node's simulation state
// at commitment time. In exchange, the executor may commit it up to a whole
// epoch window early — the destination runs the payload at `at` either way,
// but the epoch loop no longer chops a window (and pays a full node scan)
// per message instant. This is the hot path for cluster-scale traffic;
// anything whose handling observes the floor stays on Send.
func (e *Executor) SendHandoff(src, to int, at ktime.Time, m Msg) {
	if m.Kind == KindKill {
		panic("sim: KindKill must ride Executor.Send, not SendHandoff")
	}
	e.send(src, to, at, m, true)
}

func (e *Executor) send(src, to int, at ktime.Time, m Msg, handoff bool) {
	nd := e.srcNode[src]
	if min := e.nodes[nd].Now().Add(e.lookahead); at < min {
		panic(fmt.Sprintf("sim: send at %v under lookahead floor %v (source %d on node %d → %d)",
			at, min, src, nd, to))
	}
	e.sendSeq[src]++
	e.out[src] = append(e.out[src], smsg{at: at, seq: e.sendSeq[src], to: int32(to), from: int32(src),
		a: m.A, b: m.B, c: m.C, kind: m.Kind, handoff: handoff})
}

// Inject commits record m toward node `to` at absolute virtual time `at`
// from outside every node's execution context — an enclosing executor's
// coordinator between this executor's runs, or test setup. Injected
// records join the pending set under the (at, to, from, seq) order with the
// reserved source -1, so at one instant they commit before any registered
// source's traffic, in injection order (extSeq is monotonic for the
// executor's life, like every other sequence counter — see the smsg audit
// note). An injection is a floor message, committed like a Send.
//
// Unlike Send, Inject has no lookahead floor: the caller is outside the
// protocol, every node sits at or before `at`, and determinism comes from
// the caller itself being deterministic. Injecting into the past of the
// executor floor panics.
func (e *Executor) Inject(to int, at ktime.Time, m Msg) {
	if at < e.now {
		panic(fmt.Sprintf("sim: Inject at %v before executor floor %v (node %d)", at, e.now, to))
	}
	if e.handlers[to] == nil {
		panic(fmt.Sprintf("sim: Inject for node %d, which has no handler", to))
	}
	e.extSeq++
	e.pending = append(e.pending, smsg{at: at, seq: e.extSeq, to: int32(to), from: -1,
		a: m.A, b: m.B, c: m.C, kind: m.Kind})
	e.floorMsgs++
	mergeNewSmsgs(e.pending, len(e.pending)-1)
}

// NextEventTime returns the earliest pending work across the whole
// executor — live node events and undelivered messages — which is what an
// enclosing executor needs to schedule productive epochs. Call it between
// runs (it merges outboxes).
func (e *Executor) NextEventTime() (ktime.Time, bool) {
	e.collect()
	best, ok := e.minNextEvent()
	if len(e.pending) > 0 && (!ok || e.pending[0].at < best) {
		best, ok = e.pending[0].at, true
	}
	return best, ok
}

// deliver commits every pending message due at or before upTo, in merge
// order, on the coordinator goroutine. Messages to dead nodes are dropped;
// a KindKill commitment kills its destination, affecting later messages in
// the same batch (the order is fixed, so this too is deterministic).
func (e *Executor) deliver(upTo ktime.Time) {
	n := 0
	for n < len(e.pending) && e.pending[n].at <= upTo {
		n++
	}
	for j := 0; j < n; j++ {
		m := &e.pending[j]
		if !m.handoff {
			e.floorMsgs--
		}
		if e.dead[m.to] {
			e.dropped++
			continue
		}
		e.delivered++
		if m.kind == KindKill {
			e.Kill(int(m.to))
			continue
		}
		h := e.handlers[m.to]
		if h == nil {
			panic(fmt.Sprintf("sim: record (kind %d) for node %d, which has no handler", m.kind, m.to))
		}
		h(m.at, m.record())
	}
	if n > 0 {
		rest := copy(e.pending, e.pending[n:])
		e.pending = e.pending[:rest]
	}
}

// collect merges every outbox into the pending set and restores the merge
// order.
func (e *Executor) collect() {
	sorted := len(e.pending)
	for i := range e.out {
		if len(e.out[i]) > 0 {
			for _, m := range e.out[i] {
				if !m.handoff {
					e.floorMsgs++
				}
			}
			e.pending = append(e.pending, e.out[i]...)
			e.out[i] = e.out[i][:0]
		}
	}
	if len(e.pending) > sorted {
		mergeNewSmsgs(e.pending, sorted)
	}
}

// nextFloorMsg returns the due time of the earliest pending non-handoff
// message, or maxTime when none exists. On the cluster hot path nearly all
// traffic is handoffs, so the scan is guarded by the count.
func (e *Executor) nextFloorMsg() ktime.Time {
	if e.floorMsgs == 0 {
		return maxTime
	}
	for i := range e.pending {
		if !e.pending[i].handoff {
			return e.pending[i].at
		}
	}
	return maxTime
}

// minNextEvent returns the earliest pending work across live nodes. Dead
// nodes are excluded: their events are frozen and must not hold the loop
// open.
func (e *Executor) minNextEvent() (ktime.Time, bool) {
	best, ok := maxTime, false
	for i, n := range e.nodes {
		if e.dead[i] {
			continue
		}
		if t, has := n.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runEpoch advances every live node to end, in parallel or serially.
func (e *Executor) runEpoch(end ktime.Time) {
	e.epochs++
	if !e.parallel {
		for i, n := range e.nodes {
			if !e.dead[i] {
				n.RunUntil(end)
			}
		}
		return
	}
	if !e.started {
		e.cmds = make([]chan ktime.Time, len(e.nodes))
		e.ack = make(chan struct{}, len(e.nodes))
		for i := range e.nodes {
			e.cmds[i] = make(chan ktime.Time)
			go e.work(i)
		}
		e.started = true
	}
	sent := 0
	for i := range e.cmds {
		if !e.dead[i] {
			e.cmds[i] <- end
			sent++
		}
	}
	for ; sent > 0; sent-- {
		<-e.ack
	}
}

// work is node i's worker goroutine in the parallel drive: it runs one
// epoch per command until Close.
func (e *Executor) work(i int) {
	for end := range e.cmds[i] {
		e.nodes[i].RunUntil(end)
		e.ack <- struct{}{}
	}
}

// run is the epoch loop: deliver due messages, pick the next productive
// window, run it, merge the outboxes. With advance set, every live node
// clock finishes at exactly t (so back-to-back runs compose like
// Engine.RunUntil).
func (e *Executor) run(t ktime.Time, advance bool) {
	// Pick up messages submitted between runs (setup-time sends).
	e.collect()
	for {
		if len(e.pending) > 0 && e.pending[0].at <= e.now {
			e.deliver(e.now)
			continue
		}
		nextMsg := maxTime
		if len(e.pending) > 0 {
			nextMsg = e.pending[0].at
		}
		nextEv, hasEv := e.minNextEvent()
		next := nextMsg
		if hasEv && nextEv < next {
			next = nextEv
		}
		if next > t || next == maxTime {
			// Past the bound, or nothing exists at all (RunUntilIdle drained).
			break
		}
		// Jump dead time: start the epoch at the next thing that exists.
		start := e.now
		if next > start {
			start = next
		}
		if nextMsg <= start {
			// A message is due exactly at the epoch start; commit it first
			// so the work it hands over takes part in the epoch.
			e.deliver(start)
			continue
		}
		end := start.Add(e.lookahead)
		if end > t {
			end = t
		}
		// Only floor messages chop the window: their handlers may read
		// state as of their instant, so they must run with every node at
		// exactly that point. Handoff messages due inside the window are
		// committed before the epoch launches — each one hands its work to
		// the destination stamped with its own due time, so the outcome is
		// identical to committing at the exact floor, without an epoch
		// boundary (and a full node scan) per message time.
		if nf := e.nextFloorMsg(); nf < end {
			end = nf
		}
		if len(e.pending) > 0 && e.pending[0].at < end {
			e.deliver(end - 1)
		}
		e.runEpoch(end)
		e.collect()
		e.now = end
	}
	if advance && e.now < t {
		e.runEpoch(t) // nothing is due: nodes just move their clocks
		e.collect()
		e.now = t
	}
}

// RunUntil executes the simulation up to and including virtual time t;
// every live node's clock finishes at exactly t.
func (e *Executor) RunUntil(t ktime.Time) { e.run(t, true) }

// RunUntilIdle executes until no live node has a pending event and no
// message is in flight.
func (e *Executor) RunUntilIdle() { e.run(maxTime, false) }

// Close stops the worker goroutines of the parallel drive. The executor
// remains usable in serial mode afterwards; Close is idempotent.
func (e *Executor) Close() {
	if !e.started {
		return
	}
	for i := range e.cmds {
		close(e.cmds[i])
	}
	e.started = false
	e.cmds = nil
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
