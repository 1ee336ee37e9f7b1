# Development entry points. `make check` is the tier-1 gate; `make bench`
# regenerates the hot-path benchmark snapshot committed as
# BENCH_hotpath.json (compare runs with benchstat on `go test -bench` output).

GO ?= go

.PHONY: check build test race vet bench bench-cluster bench-fleet bench-rollout bench-overload fleet rollout overload sharded verified quick cover fuzz trace apicheck chaos

check: vet build race apicheck

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) run ./cmd/enokibench -benchjson BENCH_hotpath.json

# Cluster-scale throughput snapshot: single-kernel vs sharded simulation at
# 80 and 1,000 CPUs, committed as BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/enokibench -cluster BENCH_cluster.json

# Full fleet artifact: the cluster sweep plus the 1,000-machine ×
# million-job fleet benchmark (serial and parallel drives, machine failure
# mid-run), with its SLO verdicts appended to BENCH_cluster.json. Budget a
# few minutes of wall time.
bench-fleet:
	$(GO) run ./cmd/enokibench -fleet BENCH_cluster.json

# Full rollout artifact: everything bench-fleet writes plus the canary
# rollout benchmark — a clean thousand-machine upgrade, a sabotaged one
# that halts and rolls back, both serial and parallel, and the pinned
# `r1:` chaos replay — appended to BENCH_cluster.json.
bench-rollout:
	$(GO) run ./cmd/enokibench -rollout BENCH_cluster.json

# Full overload artifact: everything bench-rollout writes plus the
# traffic-plane overload benchmark — an open-loop scenario (diurnal curve,
# flash crowd, antagonist tenant, churn storm) through the
# admission/shedding/brownout control plane, serial and parallel, with the
# pinned `t1:` LeakShed chaos replay — appended to BENCH_cluster.json.
# This is the superset that regenerates the committed artifact; CI also
# runs it at -machine 80, where the scenario offers 1.26M connections.
bench-overload:
	$(GO) run ./cmd/enokibench -overload BENCH_cluster.json

# Fleet gate mirroring the CI job: the whole cluster control plane under the
# race detector — placement, migration, failover, Close lifecycle, the
# golden fleet and rollout digests — plus the machine-kill chaos replay, the
# chaos spec-parser fuzz corpus, and the scaled-down fleet benchmark's
# fingerprint check (the epoch executor's own tests run in `make sharded`).
# The last step runs the allocation ratchets — per fleet job, per task
# spawn/exit, per wheel slab — and the message-record size guard without
# the race detector.
fleet:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -run 'TestFleet|FuzzParseSpec' -count=1 ./internal/chaos ./internal/bench
	$(GO) test -run 'TestFleetJobAllocRatchet|TestSpawnExitAllocRatchet|TestWheelSlab|TestMessageRecordSizes' -count=1 ./internal/cluster ./internal/kernel ./internal/sim

# Rollout gate mirroring the CI job: the canary-upgrade state machine under
# the race detector — serial-vs-parallel identity of clean and halted
# campaigns, machine death mid-wave, the r1: chaos-replay conformance suite
# with ddmin minimization, the chaos spec-parser fuzz corpus, and the public
# Cluster.Rollout API.
rollout:
	$(GO) test -race -run 'TestRollout|TestClusterRollout|FuzzParseSpec' -count=1 ./internal/cluster ./internal/chaos ./internal/bench .

# Overload gate mirroring the CI job: the admission/brownout control plane
# under the race detector — per-class shedding, bounded retry backoff,
# brownout hysteresis, and the 0 allocs/op Admit ratchet — the traffic
# plane's flash-crowd, churn, antagonist, module-kill and serial-vs-parallel
# tests, the 30-run t1: traffic chaos campaign with the LeakShed
# find→shrink→replay loop, the cluster Offer front door, the public
# DriveTraffic/WithAdmission API, and the overload artifact smoke.
overload:
	$(GO) test -race -count=1 ./internal/overload ./internal/workload/traffic
	$(GO) test -race -run 'TestTraffic|TestParseTrafficSpec|TestGenerateTraffic|TestRunTraffic|FuzzParseSpec' -count=1 ./internal/chaos
	$(GO) test -race -run 'TestDriveTraffic|TestWithBrownout|TestClusterOfferAdmission|TestTrafficFleetDriver' -count=1 .
	$(GO) test -race -run 'TestOffer|TestSubmitBypassesAdmission' -count=1 ./internal/cluster
	$(GO) test -race -run 'TestRunOverloadSmoke' -count=1 ./internal/bench

# Epoch-executor gate mirroring the CI job: the executor's own tests over
# both node shapes, then serial-vs-parallel record-log identity, golden
# digests and conformance for every scheduler class, all under the race
# detector, plus the remote-wake and sharded allocation ratchets.
sharded:
	$(GO) test -race -count=1 ./internal/sim
	$(GO) test -race -run 'TestSharded' -count=1 ./internal/schedtest/conformance ./internal/chaos
	$(GO) test -race -run 'TestRemoteWake|TestScheduleOpShardedZeroAlloc' -count=1 ./internal/kernel

# Verified-tier gate mirroring the CI job: the bytecode verifier, interpreter
# and fault road under the race detector; the verified class through the
# 7-class conformance suite on Machine80 (including serial-vs-sharded record
# identity); the verified chaos smoke; the three-tier Attach API; and the
# interpreted-pick allocation ratchet.
verified:
	$(GO) test -race -count=1 ./internal/vpol
	$(GO) test -race -run 'TestVerified' -count=1 ./internal/schedtest/conformance ./internal/chaos
	$(GO) test -race -run 'TestCampaignVerifiedTierSmoke|TestAttach' -count=1 ./internal/chaos .
	$(GO) test -race -run 'TestScheduleOpVerifiedFIFOZeroAlloc' -count=1 ./internal/kernel

# Public-API compatibility gate for package enoki: apidiff when installed,
# textual surface diff against api/enoki.txt otherwise. Refresh the baseline
# after deliberate API changes with `scripts/apicheck.sh -update`.
apicheck:
	./scripts/apicheck.sh

# Fast full-suite pass of every table/figure, fanned out across all cores.
quick:
	$(GO) run ./cmd/enokibench -quick -parallel $$($(GO) env GOMAXPROCS 2>/dev/null || nproc)

# Coverage report mirroring the CI ratchet job.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Short local fuzz pass over the untrusted-input decoders (CI runs the same
# targets for 30s each).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/record
	$(GO) test -fuzz=FuzzBuffer -fuzztime=$(FUZZTIME) ./internal/ringbuf
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) ./internal/vpol
	$(GO) test -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/vpol
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/chaos

# Seeded chaos campaign under the race detector: fault schedules round-robin
# across every scheduler class, judged by the invariant oracle; any failure
# is minimized and printed as a one-line `enoki-chaos -replay` reproducer
# (the exit code fails the build). The second step is the allocation ratchet
# proving the disarmed fault hooks add nothing to the schedule hot path.
CHAOS_RUNS ?= 70
CHAOS_SEED ?= 0xe120c1
chaos:
	$(GO) run -race ./cmd/enoki-chaos -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)
	$(GO) test -race -run TestScheduleOpChaosIdleZeroAlloc -count=1 ./internal/kernel

# Render the fixed-seed demo timeline to trace.json for Perfetto.
trace:
	$(GO) run ./cmd/enoki-trace -demo -sched wfq -o trace.json
