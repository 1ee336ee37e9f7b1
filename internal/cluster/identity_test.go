package cluster_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// fleetRun is everything a fleet drive produces that must be identical
// between the serial and parallel modes: the per-(machine, shard) record
// logs and the full control-plane outcome.
type fleetRun struct {
	logs  [][][]byte // [machine][shard]
	jobs  []cluster.Job
	stats cluster.Stats
	// machineEvents sums the engine events fired on the machines alone,
	// without the control plane's.
	machineEvents uint64
}

// runDigest hashes everything a cluster run observably produced: the Stats
// roll-up, every Job record, every per-(machine, shard) record log and, for
// rollout runs, the RolloutReport. Stats.EventsFired is replaced by the
// machines' own event count: the control plane's share counts executor
// events (how reports are batched into engine events), not behaviour.
func runDigest(stats cluster.Stats, machineEvents uint64, jobs []cluster.Job, logs [][][]byte, extra ...any) uint64 {
	h := fnv.New64a()
	stats.EventsFired = machineEvents
	fmt.Fprintf(h, "%+v\n", stats)
	for _, j := range jobs {
		fmt.Fprintf(h, "%+v\n", j)
	}
	for mi := range logs {
		for s, l := range logs[mi] {
			fmt.Fprintf(h, "log %d/%d %d\n", mi, s, len(l))
			h.Write(l)
		}
	}
	for _, x := range extra {
		fmt.Fprintf(h, "%+v\n", x)
	}
	return h.Sum64()
}

func (r fleetRun) digest() uint64 { return runDigest(r.stats, r.machineEvents, r.jobs, r.logs) }

// goldenFleetDigest pins each class's fleet run to the exact outcome of the
// closure-message executor this test was first written against. The
// serial≡parallel checks below cannot see a change that reorders messages
// the same way in both drives; the pin can.
var goldenFleetDigest = map[string]uint64{
	"fifo":     0x0d4ef012727407a5,
	"wfq":      0xe1c7639bf1784918,
	"shinjuku": 0xb98580976dceb3a5,
}

// recordFleetRun drives one seeded cluster workload for case c on machine
// template m: every machine loads the case's module above CFS on each
// shard with a record channel, a seeded job mix is submitted up front, one
// machine is killed mid-run, and the cluster runs to completion.
func recordFleetRun(c conformance.Case, m kernel.Machine, seed uint64, parallel bool) fleetRun {
	const machines = 10
	bufs := make([][]*bytes.Buffer, machines)
	recs := make([][]*record.Recorder, machines)
	policy := conformance.PolicyCFS
	if c.NewModule != nil {
		policy = conformance.PolicyTest
	}
	cl := cluster.New(cluster.Config{
		Machines:        machines,
		Machine:         m,
		Parallel:        parallel,
		Policy:          policy,
		Placer:          &cluster.Pack{PerCPU: 2},
		RebalanceSpread: 3,
		Setup: func(mi int, sk *kernel.ShardedKernel) {
			bufs[mi] = make([]*bytes.Buffer, sk.NumShards())
			recs[mi] = make([]*record.Recorder, sk.NumShards())
			for s := 0; s < sk.NumShards(); s++ {
				k := sk.ShardKernel(s)
				var ad *enokic.Adapter
				if c.NewModule != nil {
					ad = enokic.Load(k, conformance.PolicyTest, enokic.Config{},
						func(env core.Env) core.Scheduler { return c.NewModule(env, k.NumCPUs()) })
				}
				k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))
				if ad != nil {
					bufs[mi][s] = &bytes.Buffer{}
					recs[mi][s] = record.New(k, bufs[mi][s], conformance.PolicyCFS, record.DefaultCosts())
					ad.SetRecorder(recs[mi][s])
				}
			}
		},
	})
	defer cl.Close()

	rng := ktime.NewRand(seed)
	for i := 0; i < 80; i++ {
		cl.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(5),
			Run:    time.Duration(80+rng.Intn(250)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 150 * time.Microsecond,
		})
	}
	cl.FailMachine(3, 2*time.Millisecond)
	// A fixed virtual budget, not RunUntilIdle: the record drain tasks tick
	// forever, so a recorded cluster never goes idle. The bound is part of
	// the workload seed — identical in both drives.
	cl.Run(60 * time.Millisecond)

	out := fleetRun{logs: make([][][]byte, machines), stats: cl.Stats()}
	for mi := 0; mi < machines; mi++ {
		out.logs[mi] = make([][]byte, len(bufs[mi]))
		for s := range bufs[mi] {
			if recs[mi][s] != nil {
				recs[mi][s].Close()
				out.logs[mi][s] = bufs[mi][s].Bytes()
			}
		}
	}
	for i := 0; i < cl.NumJobs(); i++ {
		out.jobs = append(out.jobs, cl.Job(i))
	}
	for mi := 0; mi < machines; mi++ {
		out.machineEvents += cl.Machine(mi).Sharded().EventsFired()
	}
	return out
}

// TestFleetClusterIdentity is the cluster-level determinism oracle: for
// three scheduler classes on a ten-machine fleet — including a machine
// failure and rebalance migrations mid-run — the serial and
// worker-goroutine fleet drives must produce byte-identical per-machine
// record logs and identical control-plane outcomes. One class runs on
// two-node machines so the fleet epochs nest over inner IPI epochs. Under
// -race this is also the data-race gate for the whole cluster stack.
func TestFleetClusterIdentity(t *testing.T) {
	classes := map[string]kernel.Machine{
		"fifo":     kernel.Machine8(),
		"wfq":      kernel.MachineNUMA("fleet16", 2, 2, 4),
		"shinjuku": kernel.Machine8(),
	}
	for _, c := range conformance.Cases() {
		m, ok := classes[c.Name]
		if !ok {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			seed := uint64(0xc1a55e5) ^ uint64(len(c.Name))
			serial := recordFleetRun(c, m, seed, false)
			par := recordFleetRun(c, m, seed, true)

			if serial.stats != par.stats {
				t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", serial.stats, par.stats)
			}
			if got, want := serial.digest(), goldenFleetDigest[c.Name]; got != want {
				t.Errorf("run digest %#016x, golden %#016x: the fleet outcome changed", got, want)
			}
			if len(serial.jobs) != len(par.jobs) {
				t.Fatalf("job counts diverge: %d vs %d", len(serial.jobs), len(par.jobs))
			}
			for i := range serial.jobs {
				if serial.jobs[i] != par.jobs[i] {
					t.Fatalf("job %d diverges:\nserial   %+v\nparallel %+v", i, serial.jobs[i], par.jobs[i])
				}
			}
			for mi := range serial.logs {
				for s := range serial.logs[mi] {
					if !bytes.Equal(serial.logs[mi][s], par.logs[mi][s]) {
						t.Fatalf("machine %d shard %d: record logs diverge (%d vs %d bytes)",
							mi, s, len(serial.logs[mi][s]), len(par.logs[mi][s]))
					}
				}
			}
			// The run must have exercised the interesting paths, or the
			// identity proves nothing.
			st := serial.stats
			if st.Done != st.Submitted {
				t.Fatalf("only %d/%d jobs completed", st.Done, st.Submitted)
			}
			if st.Lost == 0 {
				t.Fatal("machine failure lost no placements — failover path not exercised")
			}
			if st.Migrations == 0 {
				t.Fatal("no rebalance migrations — migration path not exercised")
			}
			if c.NewModule != nil {
				total := 0
				for _, perShard := range serial.logs {
					for _, l := range perShard {
						total += len(l)
					}
				}
				if total == 0 {
					t.Fatal("record logs are empty — modules saw no scheduling traffic")
				}
			}
		})
	}
}

// TestFleetClusterSeedSensitivity guards against a trivially-constant
// fingerprint: different seeds must produce different record logs, so the
// identity test above cannot pass vacuously.
func TestFleetClusterSeedSensitivity(t *testing.T) {
	var c conformance.Case
	for _, cc := range conformance.Cases() {
		if cc.Name == "fifo" {
			c = cc
		}
	}
	a := recordFleetRun(c, kernel.Machine8(), 1, false)
	b := recordFleetRun(c, kernel.Machine8(), 2, false)
	if fmt.Sprint(a.stats) == fmt.Sprint(b.stats) && func() bool {
		for mi := range a.logs {
			for s := range a.logs[mi] {
				if !bytes.Equal(a.logs[mi][s], b.logs[mi][s]) {
					return false
				}
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical runs — workload is not seed-sensitive")
	}
}
