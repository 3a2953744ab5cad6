#!/usr/bin/make -f

########################################
### Build / test / verify

GO ?= go
PKGS = ./...

build:
	@echo "Building all packages and commands..."
	@$(GO) build $(PKGS)

test:
	@echo "Running the full test suite (conformance, safety campaigns, checkers, adversary scenarios)..."
	@$(GO) test $(PKGS)

test-race:
	@echo "Running the full test suite under the race detector..."
	@$(GO) test -race $(PKGS)

vet:
	@echo "Vetting..."
	@$(GO) vet $(PKGS)

# The benchmark of record is a nested module (benchmark/go.mod) that
# imports internal/kv, internal/server and internal/wal through a
# replace; `go build/vet/test ./...` at the root do not see it, so an
# API change there breaks it silently unless this runs.
benchmark-check:
	@echo "Vetting and unit-testing the nested benchmark module against this tree..."
	@cd benchmark && $(GO) vet . && $(GO) test .

check: build vet test benchmark-check

########################################
### Benchmarks / experiments

BENCHTIME ?= 1s

bench:
	@echo "Running the Go benchmark suite (ns/op + allocs/op)..."
	@$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) .

bench-readheavy:
	@echo "Read-heavy benchmark (commit-epoch validation hot path)..."
	@$(GO) test -run '^$$' -bench BenchmarkReadHeavy -benchmem -benchtime $(BENCHTIME) .

experiments:
	@echo "Regenerating the E1..E19 experiment tables..."
	@$(GO) run ./cmd/oftm-bench

BENCH_JSON ?= BENCH_PR15.json
bench-json:
	@echo "Measuring the perf-tracking grid into $(BENCH_JSON)..."
	@$(GO) run ./cmd/oftm-bench -json $(BENCH_JSON)

# The checked-in BENCH_PRn.json (one record; git keeps the older ones)
# is the median of three runs per record, measured on one container;
# ns/op baselines only gate honestly when both sides ran on the same
# machine, so the diff against it is advisory across containers and
# binding within one. Records new since the baseline are skipped with a notice.
# bench-diff measures the working tree into BENCH_CUR (a scratch file,
# so the checked-in record it gates against is never overwritten); a PR
# that records a new grid runs bench-json and moves BASELINE to it.
BASELINE ?= BENCH_PR15.json
BENCH_CUR ?= /tmp/oftm-bench-cur.json
bench-diff:
	@echo "Measuring the perf-tracking grid into $(BENCH_CUR) and diffing against $(BASELINE) (fails on >25% ns/op regressions and on allocs/op above the baseline allowance — zero-alloc records must stay zero; workloads new since the baseline are skipped with a notice)..."
	@$(GO) run ./cmd/oftm-bench -json $(BENCH_CUR) -baseline $(BASELINE)

########################################
### Serving stack (kv + wire server)

kv-smoke:
	@echo "Running every kv-* workload briefly..."
	@$(GO) run ./cmd/oftm-bench -kvsmoke

bench-server:
	@echo "End-to-end loopback server benchmark (pipelined GET/SET; budget: <= 1 alloc/req on the byte path)..."
	@$(GO) test -run '^$$' -bench BenchmarkServer -benchmem -benchtime $(BENCHTIME) ./internal/bench

servebench:
	@echo "Running experiments E11 (WAL durability bill), E13 (serving-runtime scaling grid, 2 loadgen procs), E14 (replication follower-read scaling) and E15 (async reply path + slow-reader soak)..."
	@$(GO) run ./cmd/oftm-bench -servebench

server-scale-smoke:
	@echo "E15 smoke: truncated scaling grid (8/64 conns, 2 workers, 2 loadgen procs) with the allocs/req <= 1 gate, the 2-connection request/response row gated on inline rounds, plus the slow-reader soak row..."
	@$(GO) run ./cmd/oftm-bench -exp E15 -procs 2 -scale-conns 8,64 -scale-workers 2 | tee /tmp/oftm-scale-smoke.out
	@awk '/^(worker|goroutine) / { if ($$8 == "" || $$8+0 > 1) { print "allocs/req gate failed: " $$0; bad = 1 } } END { if (bad) exit 1; print "allocs/req <= 1 at every smoke grid point" }' /tmp/oftm-scale-smoke.out
	@awk '/^reqresp-c2-worker / { seen = 1; if ($$6+0 < 1 || $$7/$$6 < 0.9 || $$8+0 != 0) { print "inline gate failed (want inline/rounds >= 0.9, dispatches = 0): " $$0; bad = 1 } } END { if (!seen) { print "inline gate: no reqresp-c2-worker row"; exit 1 }; if (bad) exit 1; print "2 request/response connections ran their rounds inline on the readers (inline/rounds >= 0.9, dispatches = 0)" }' /tmp/oftm-scale-smoke.out
	@awk '/^soak-worker / { seen = 1; if ($$5 == "" || $$5+0 < 1 || $$6+0 != 0) { print "soak gate failed (want bp pauses >= 1, kills = 0): " $$0; bad = 1 } } END { if (!seen) { print "soak gate: no soak-worker row"; exit 1 }; if (bad) exit 1; print "slow reader held by backpressure (pauses >= 1, kills = 0)" }' /tmp/oftm-scale-smoke.out

replication-smoke:
	@echo "Replication unit suites under the race detector (WAL tail-follow, repl stream, follower reads, kill-primary promote)..."
	@$(GO) test -race -count=1 ./internal/wal ./internal/repl
	@$(GO) test -race -count=1 -run 'TestReplicaFollowerReads|TestKillPrimaryPromoteReplica|TestReplicaRebootstrapAfterRotationCut' ./internal/server
	@echo "Binary-level smoke: primary + 1 replica, mixed load, catch-up, SIGUSR1 promote, load at the promoted node..."
	@$(GO) build -o /tmp/oftm-repl-smoke ./cmd/oftm-server
	@rm -rf /tmp/oftm-repl-smoke-p /tmp/oftm-repl-smoke-r; \
	/tmp/oftm-repl-smoke -addr 127.0.0.1:7791 -wal-dir /tmp/oftm-repl-smoke-p -fsync always -replicate-addr 127.0.0.1:7792 & \
	PRV=$$!; sleep 1; \
	/tmp/oftm-repl-smoke -addr 127.0.0.1:7793 -wal-dir /tmp/oftm-repl-smoke-r -replica-of 127.0.0.1:7792 & \
	REP=$$!; sleep 1; \
	/tmp/oftm-repl-smoke -connect 127.0.0.1:7791 -conns 4 -ops 500; RC1=$$?; \
	sleep 1; \
	kill -INT $$PRV; wait $$PRV; \
	kill -USR1 $$REP; sleep 1; \
	/tmp/oftm-repl-smoke -connect 127.0.0.1:7793 -conns 4 -ops 500; RC2=$$?; \
	kill -INT $$REP; wait $$REP; SRC=$$?; \
	rm -rf /tmp/oftm-repl-smoke /tmp/oftm-repl-smoke-p /tmp/oftm-repl-smoke-r; \
	echo "primary-load exit: $$RC1, promoted-load exit: $$RC2, replica server exit: $$SRC"; \
	[ $$RC1 -eq 0 ] && [ $$RC2 -eq 0 ] && [ $$SRC -eq 0 ]

recovery-smoke:
	@echo "Vetting and running the crash/recovery suite (kill-and-recover, torn tail, WAL unit tests)..."
	@$(GO) vet $(PKGS)
	@$(GO) test -count=1 -v -run 'TestKillAndRecover|TestWALRestartCycle|TestRecoveryHelperProcess|TestRotationCutBoundsRestart' ./internal/server
	@$(GO) test -count=1 ./internal/wal
	@echo "Decoder fuzz corpora (effect iterator, whole-segment replay) against the pre-accumulator oracle..."
	@$(GO) test -count=1 -run 'Fuzz' ./internal/wal

SERVER_ADDR ?= 127.0.0.1:7781
server-smoke: kv-smoke
	@echo "Building oftm-server and driving pipelined load through it..."
	@$(GO) build -o /tmp/oftm-server-smoke ./cmd/oftm-server
	@/tmp/oftm-server-smoke -addr $(SERVER_ADDR) -engine nztm -shards 8 & \
	SRV=$$!; sleep 1; \
	/tmp/oftm-server-smoke -connect $(SERVER_ADDR) -conns 4 -ops 250; RC=$$?; \
	kill -INT $$SRV; wait $$SRV; SRC=$$?; \
	rm -f /tmp/oftm-server-smoke; \
	echo "client exit: $$RC, server exit: $$SRC"; \
	[ $$RC -eq 0 ] && [ $$SRC -eq 0 ]

########################################
### Fault-injection sim campaign

# Knobs (also honored by `go test ./internal/campaign` via the
# -campaign.* flags): seeds swept, driver ops per crash run, and the
# probability the injected fault is a full crash vs a disk error.
SIM_SEEDS ?= 10
SEEDS ?= $(SIM_SEEDS)
SIM_OPS ?= 300
SIM_CRASH_PROB ?= 0.5

sim-multi-seed:
	@echo "Crash campaign over $(SEEDS) seeds (fail-stop, acked-writes-survive, recovery, serializability; failing seeds print an exact repro command)..."
	@$(GO) run ./cmd/oftm-campaign -mode crash -seeds $(SEEDS) -ops $(SIM_OPS) -crashprob $(SIM_CRASH_PROB)

sim-nondeterminism:
	@echo "Same-seed determinism battery (two crash runs byte-identical, dstm vs nztm identical, sim-mode runs identical, histories serializable)..."
	@$(GO) run ./cmd/oftm-campaign -mode nondet -seeds 4 -ops $(SIM_OPS) -crashprob $(SIM_CRASH_PROB)

sim-import-export:
	@echo "Snapshot import/export round-trip (export -> recover -> re-export must reproduce identical bytes)..."
	@$(GO) run ./cmd/oftm-campaign -mode import-export -seeds 8 -ops $(SIM_OPS)

sim-benchmark-invariants:
	@echo "Timing the invariant gate itself (one full crash run + recovery + checks per iteration)..."
	@$(GO) test -run '^$$' -bench BenchmarkInvariants -benchtime 20x ./internal/campaign

sim-smoke: sim-nondeterminism
	@echo "Campaign test wrappers under the race detector (10 seeds)..."
	@$(GO) test -race -count=1 ./internal/campaign -campaign.seeds=10

snapshot-smoke:
	@echo "Snapshot-chain suites under the race detector (chain cut/link/truncate, broken-chain refusal, bundle install)..."
	@$(GO) test -race -count=1 ./internal/wal
	@echo "Snapshot torture: crash inside the snapshot writer (between shard images and mid-manifest), recover, check acked writes + chain completeness..."
	@$(GO) run ./cmd/oftm-campaign -mode torture -seeds $(SEEDS) -ops $(SIM_OPS)
	@$(GO) test -race -count=1 -run 'TestSnapshotTorture|TestImportExport' ./internal/campaign -campaign.seeds=4
	@echo "Truncated E16 row (recovery-time bound; the binding >= 5x gate runs at 10M keys via 'make experiments')..."
	@OFTM_E16_KEYS=200000 $(GO) run ./cmd/oftm-bench -exp E16 | tee /tmp/oftm-snapshot-smoke.out
	@awk '/^E16 speedup:/ { seen = 1; if ($$3 + 0 < 1.5) { print "recovery speedup gate failed (want >= 1.5x at truncated scale): " $$0; bad = 1 } } END { if (!seen) { print "no E16 speedup line"; exit 1 }; if (bad) exit 1; print "incremental recovery held the truncated-scale bound" }' /tmp/oftm-snapshot-smoke.out
	@echo "Truncated E19 rows (restart after wal.Open: Store.Load vs the Each->Put loop it replaced; measured ~1.5-1.7x at 200k keys, ~2x against the PR 14 tree)..."
	@OFTM_E16_KEYS=200000 $(GO) run ./cmd/oftm-bench -exp E19 | tee /tmp/oftm-load-smoke.out
	@awk '/^E19 load speedup:/ { seen = 1; if ($$4 + 0 < 1.2) { print "load speedup gate failed (want >= 1.2x at truncated scale): " $$0; bad = 1 } } END { if (!seen) { print "no E19 load speedup line"; exit 1 }; if (bad) exit 1; print "Store.Load held its lead over the put loop" }' /tmp/oftm-load-smoke.out

.PHONY: build test test-race vet benchmark-check check bench bench-readheavy experiments bench-json bench-diff kv-smoke bench-server servebench server-scale-smoke server-smoke replication-smoke recovery-smoke sim-multi-seed sim-nondeterminism sim-import-export sim-benchmark-invariants sim-smoke snapshot-smoke
