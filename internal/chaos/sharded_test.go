package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// shardedCampaignDigest hashes everything a sharded campaign observably
// produced: every counter, every violation and every per-shard record log.
func shardedCampaignDigest(r ShardedResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d %d/%d %d %d %d\n", r.WorkloadDone, r.WorkloadTasks, r.PingersDone, r.Pingers,
		r.MsgsDelivered, r.EventsFired, r.CtxSwitches)
	for _, v := range r.Violations {
		fmt.Fprintf(h, "%s\n", v)
	}
	for i, l := range r.Logs {
		fmt.Fprintf(h, "log %d %d\n", i, len(l))
		h.Write(l)
	}
	return h.Sum64()
}

// goldenShardedCampaignDigest pins each seed's serial campaign to the exact
// outcome of the executor this test was first written against, which the
// serial≡parallel comparison alone cannot see moving.
var goldenShardedCampaignDigest = map[uint64]uint64{
	1:          0xb683e6333d58d081,
	0x5eed:     0xc20f167772b71958,
	0xbeefcafe: 0x3cf29a865d592f77,
}

// TestShardedCampaignIdentity is the chaos arm of the sharded determinism
// gate: with kernel fault windows armed on every shard, the serial and
// parallel drives of the same seeded campaign must agree on every counter
// and produce byte-identical per-shard record logs. Fault draws happen
// inside shard event closures, so this also proves the injectors stay
// shard-owned under the parallel drive.
func TestShardedCampaignIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 0x5eed, 0xbeefcafe} {
		serial := RunSharded(seed, "wfq", 120*time.Millisecond, 16, false)
		par := RunSharded(seed, "wfq", 120*time.Millisecond, 16, true)

		if serial.MsgsDelivered == 0 {
			t.Fatalf("seed %#x: no cross-shard messages delivered", seed)
		}
		if got, want := shardedCampaignDigest(serial), goldenShardedCampaignDigest[seed]; got != want {
			t.Errorf("seed %#x: campaign digest %#016x, golden %#016x: the sharded outcome changed", seed, got, want)
		}
		if serial.EventsFired != par.EventsFired || serial.CtxSwitches != par.CtxSwitches {
			t.Fatalf("seed %#x: serial fired %d events / %d switches, parallel %d / %d",
				seed, serial.EventsFired, serial.CtxSwitches, par.EventsFired, par.CtxSwitches)
		}
		if serial.WorkloadDone != par.WorkloadDone || serial.PingersDone != par.PingersDone {
			t.Fatalf("seed %#x: completion diverges: %d/%d workload, %d/%d pingers",
				seed, serial.WorkloadDone, par.WorkloadDone, serial.PingersDone, par.PingersDone)
		}
		for _, v := range serial.Violations {
			t.Errorf("seed %#x serial: %s", seed, v)
		}
		for _, v := range par.Violations {
			t.Errorf("seed %#x parallel: %s", seed, v)
		}
		for i := range serial.Logs {
			if !bytes.Equal(serial.Logs[i], par.Logs[i]) {
				j := 0
				for j < len(serial.Logs[i]) && j < len(par.Logs[i]) && serial.Logs[i][j] == par.Logs[i][j] {
					j++
				}
				t.Fatalf("seed %#x shard %d: record logs diverge (%d vs %d bytes, first difference at byte %d)",
					seed, i, len(serial.Logs[i]), len(par.Logs[i]), j)
			}
			if len(serial.Logs[i]) == 0 {
				t.Errorf("seed %#x shard %d: empty record log", seed, i)
			}
		}
	}
}

// TestShardedCampaignSeedsDiffer guards against the campaign ignoring its
// seed: two different seeds must not produce the same record bytes.
func TestShardedCampaignSeedsDiffer(t *testing.T) {
	a := RunSharded(7, "wfq", 60*time.Millisecond, 12, false)
	b := RunSharded(8, "wfq", 60*time.Millisecond, 12, false)
	same := true
	for i := range a.Logs {
		if !bytes.Equal(a.Logs[i], b.Logs[i]) {
			same = false
		}
	}
	if same {
		t.Error("campaigns with different seeds produced identical record logs")
	}
}
