# Verification tiers (see ROADMAP.md).
#
#   tier1  - build + unit/equivalence tests (the gate every change must pass)
#   tier2  - static analysis (vet + gofmt over the tracked Go files) and
#            the full suite under the race detector (guards the serve
#            daemon's HTTP handlers and telemetry scraper goroutines)
#   chaos  - the fault-injection chaos harness under the race detector
#            (fixed seed matrix; conservation + bit-for-bit replay)
#   soak   - the 20-seed degrade->restore chaos matrix under the race
#            detector, each seed with a mid-run checkpoint/restore that
#            must continue bit-for-bit identical to the uninterrupted
#            run, plus the fabric chip-loss soak (whole-chip kill ->
#            re-admission with a mid-arc fabric checkpoint)
#   soak-heal - the seeded fabric healing soak: each seed rides a
#            killtrunk -> ARQ -> restoretrunk -> killchip -> restorechip
#            arc on a healed ring, with a mid-heal (trunk dark, ARQ
#            pending) FABCKPT1 checkpoint that must continue
#            byte-identical, zero silent word loss at the end
#   fuzz   - short runs of the interpreter, allocator, fault-schedule,
#            chip-snapshot, topology-spec, and workload-spec fuzz targets
#   bench  - the simulator-speed benchmark (host ns per router cycle)
#   bench-telemetry - regenerate BENCH_telemetry.json; fails if the
#            disabled telemetry plane costs >1% vs the pre-telemetry
#            commit (interleaved same-session legs)
#   bench-engine - regenerate BENCH_engine.json; fails if the compiled
#            fast engine is not >=2x the reference interpreter on the
#            1,024-byte-packet steady-state workload (paired ref/fast
#            rounds in one binary)
#   bench-fault - regenerate BENCH_fault.json; fails if arming the
#            fabric healing plane costs an idle (fault-free) run >1%
#            versus healing disabled (interleaved paired legs)
#   bench-traffic - regenerate BENCH_traffic.json; fails if generating
#            one slice of open-loop arrivals (heavy-tailed flows) costs
#            >1% of the reference engine stepping the same cycles, and
#            byte-diffs the checked-in daymini trace artifact against a
#            regeneration from its preset spec
#   serve-smoke - the daemon-mode lifecycle smoke: boot rawrouter -serve
#            as a real process, drive healthz/readyz/metrics over HTTP
#            through a latched degrade + SLO violation, /drain to a
#            checkpoint, and restore it twice to byte-identical
#            continuations; plus the in-process serve suite under -race

GO ?= go
SOAK_SEEDS ?= 20

.PHONY: all tier1 tier2 chaos soak soak-heal fuzz bench bench-telemetry bench-engine bench-fault bench-traffic serve-smoke ci

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) test -race ./...

chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/fault
	$(GO) test -race -v -run 'TestWatchdog|TestManualDegrade|TestDegraded|TestDropConservation' ./internal/router

soak:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoak' ./internal/fault
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoakChipLoss' ./internal/cluster
	$(GO) test -race -run 'TestRestore|TestDegradeRestore|TestAutoRestore|TestRouterSnapshot|TestLineFlap|TestReprobe' ./internal/router

soak-heal:
	SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -v -timeout 60m -run 'TestSoakHeal' ./internal/cluster

fuzz:
	$(GO) test ./internal/raw/asm -fuzz FuzzInterp -fuzztime 30s
	$(GO) test ./internal/rotor -fuzz FuzzAllocate -fuzztime 30s
	$(GO) test ./internal/fault -fuzz FuzzFaultSchedule -fuzztime 30s
	$(GO) test ./internal/raw -fuzz FuzzSnapshotRoundTrip -fuzztime 30s
	$(GO) test ./internal/cluster -fuzz FuzzTopologySpec -fuzztime 30s
	$(GO) test ./internal/traffic -fuzz FuzzWorkloadSpec -fuzztime 30s

bench:
	$(GO) test -run '^$$' -bench BenchmarkSimulatorCyclesPerSecond -benchmem .

bench-telemetry:
	sh scripts/bench_telemetry.sh

bench-engine:
	sh scripts/bench_engine.sh

bench-fault:
	sh scripts/bench_fault.sh

bench-traffic:
	sh scripts/bench_traffic.sh

serve-smoke:
	$(GO) test -race ./internal/serve ./internal/cli
	sh scripts/serve_smoke.sh

ci: tier1 tier2 chaos soak soak-heal bench-telemetry bench-engine bench-fault bench-traffic serve-smoke
