package conformance

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
)

// shardedDigest hashes everything a sharded run observably produced: every
// counter and every per-shard record log.
func shardedDigest(r ShardedRunResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d %d/%d %d %d %d %d %d\n", r.WorkloadDone, r.WorkloadTasks, r.PingersDone, r.Pingers,
		r.CrossWakes, r.MsgsDelivered, r.EventsFired, r.CtxSwitches, len(r.Violations))
	for i, l := range r.Logs {
		fmt.Fprintf(h, "log %d %d\n", i, len(l))
		h.Write(l)
	}
	return h.Sum64()
}

// goldenShardedDigest pins each class's serial sharded run to the exact
// outcome of the executor this test was first written against. The
// serial≡parallel checks cannot see a change that moves both drives the
// same way (a reordered merge, a shifted epoch boundary); the pin can.
var goldenShardedDigest = map[string]uint64{
	"cfs":      0x0f95710e2987e105,
	"fifo":     0x542f2407b2072149,
	"wfq":      0x041809dc8d2e1ec3,
	"shinjuku": 0xfb7a52ede6273233,
	"arbiter":  0x82865822ac82046d,
	"nest":     0x221044caaa42d8e4,
	"locality": 0xab8ca7b38d008727,
}

// TestShardedRecordIdentity is the tentpole's determinism gate: for every
// scheduler class, the sharded run driven serially and the same run driven on
// worker goroutines must produce byte-identical per-shard record logs (and
// identical counters for the module-less CFS baseline). Under -race this also
// proves the parallel drive shares no unsynchronized state.
func TestShardedRecordIdentity(t *testing.T) {
	m := kernel.Machine80()
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			cfg := enokic.DefaultConfig()
			serial := RecordShardedRun(c, m, cfg, 0x5eed, 24, 120*time.Millisecond, false)
			par := RecordShardedRun(c, m, cfg, 0x5eed, 24, 120*time.Millisecond, true)

			if serial.MsgsDelivered == 0 {
				t.Fatal("no cross-shard messages delivered — the epoch protocol was not exercised")
			}
			if got, want := shardedDigest(serial), goldenShardedDigest[c.Name]; got != want {
				t.Errorf("run digest %#016x, golden %#016x: the sharded outcome changed", got, want)
			}
			if serial.EventsFired != par.EventsFired || serial.CtxSwitches != par.CtxSwitches {
				t.Fatalf("serial fired %d events / %d switches, parallel %d / %d",
					serial.EventsFired, serial.CtxSwitches, par.EventsFired, par.CtxSwitches)
			}
			if serial.WorkloadDone != par.WorkloadDone || serial.PingersDone != par.PingersDone {
				t.Fatalf("completion diverges: %d/%d workload, %d/%d pingers",
					serial.WorkloadDone, par.WorkloadDone, serial.PingersDone, par.PingersDone)
			}
			for i := range serial.Logs {
				if !bytes.Equal(serial.Logs[i], par.Logs[i]) {
					j := 0
					for j < len(serial.Logs[i]) && j < len(par.Logs[i]) && serial.Logs[i][j] == par.Logs[i][j] {
						j++
					}
					t.Fatalf("shard %d record logs diverge: %d vs %d bytes, first difference at byte %d",
						i, len(serial.Logs[i]), len(par.Logs[i]), j)
				}
			}
			if c.NewModule != nil {
				for i, log := range serial.Logs {
					if len(log) == 0 {
						t.Fatalf("shard %d produced an empty record log", i)
					}
					if _, err := record.Load(bytes.NewReader(log)); err != nil {
						t.Fatalf("shard %d record log not decodable: %v", i, err)
					}
				}
			}
		})
	}
}

// TestShardedConformance runs the full invariant suite per shard: every
// workload task and every cross-shard pinger completes, no task leaks, and
// no checker violation — the sharded machine upholds everything the
// single-kernel machine does.
func TestShardedConformance(t *testing.T) {
	m := kernel.Machine80()
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			res := RecordShardedRun(c, m, enokic.DefaultConfig(), 0xC0, 30, 2*time.Second, true)
			if res.WorkloadDone != res.WorkloadTasks {
				t.Errorf("%d/%d workload tasks completed", res.WorkloadDone, res.WorkloadTasks)
			}
			if res.PingersDone != res.Pingers {
				t.Errorf("%d/%d cross-shard pingers completed — remote wakes lost", res.PingersDone, res.Pingers)
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %v", v)
			}
		})
	}
}

// TestShardedKernelMapping pins the global↔local CPU mapping and the
// sub-machine carve-up on the two-socket Xeon.
func TestShardedKernelMapping(t *testing.T) {
	m := kernel.Machine80()
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	if sk.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", sk.NumShards())
	}
	for shard, wantCPUs := range map[int]int{0: 40, 1: 40} {
		if got := sk.ShardKernel(shard).NumCPUs(); got != wantCPUs {
			t.Errorf("shard %d has %d CPUs, want %d", shard, got, wantCPUs)
		}
	}
	if g := sk.GlobalCPU(1, 5); g != 45 {
		t.Errorf("GlobalCPU(1, 5) = %d, want 45", g)
	}
	if sh, lo := sk.ShardOfCPU(45); sh != 1 || lo != 5 {
		t.Errorf("ShardOfCPU(45) = (%d, %d), want (1, 5)", sh, lo)
	}
	sub := sk.ShardKernel(1).Topology()
	if sub.NumNodes != 1 || sub.NumLLCs != 4 {
		t.Errorf("shard 1 sub-machine: %d nodes / %d LLCs, want 1 / 4", sub.NumNodes, sub.NumLLCs)
	}
	if sk.Executor().Lookahead() != kernel.CostsFor(m).IPIDeliver+kernel.CostsFor(m).CrossNodeExtra {
		t.Errorf("default lookahead = %v", sk.Executor().Lookahead())
	}
}
