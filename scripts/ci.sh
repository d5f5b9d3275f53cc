#!/bin/sh
# CI gate: tier-1 (build + tests) then tier-2 (vet + gofmt + race
# detector). The race run guards the goroutines the simulator does have:
# the serve daemon's HTTP handlers, telemetry scraper, and UDP feeder,
# which must reach simulator state only through the slice loop.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: build + test =="
go build ./...
go test ./...

echo "== tier-2: vet + gofmt + race =="
go vet ./...
# git ls-files, not gofmt -l .: the benchmark's build tree is untracked.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go test -race ./...

echo "== tier-2: chaos harness (fixed seed matrix, race detector) =="
# Seeds are pinned inside the tests (fault.Random seeds 1,2,3,5,7 and the
# crash/corruption schedules), so this matrix is fully reproducible:
# conservation, no-duplication, and bit-for-bit replay of each scenario.
# TestChaosEngineEquivalence re-runs every schedule under the
# compiled fast engine (-engine fast) and requires identical fingerprints.
go test -race -run 'TestChaos' ./internal/fault
go test -race -run 'TestWatchdog|TestManualDegrade|TestDegraded|TestDropConservation' ./internal/router

echo "== soak: degrade->restore matrix with mid-run checkpoint/restore (race detector) =="
# Every seed freezes a crossbar tile under recoverable noise, rides the
# watchdog degrade -> thaw -> auto-restore -> probation arc, and must
# (a) conserve and deliver every packet intact, and (b) continue
# bit-for-bit identical after a mid-arc checkpoint is restored into a
# fresh router under the other cycle engine (the cross-engine checkpoint
# gate). TestSoakEngineEquivalence additionally requires byte-identical
# final checkpoints, event logs, and telemetry exports between engines.
# SOAK_SEEDS widens the matrix (make soak runs 20).
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoak' ./internal/fault
go test -race -run 'TestRestore|TestDegradeRestore|TestAutoRestore|TestRouterSnapshot|TestLineFlap|TestReprobe' ./internal/router

echo "== fabric: chip-loss soak + cross-engine topology conformance (race detector) =="
# Every seed schedules a whole-chip kill -> dead interval -> re-admission
# arc on a live N-chip fabric through the fault grammar
# (killchip@/restorechip@), checkpoints the whole fabric mid-arc (chip
# down) as one FABCKPT1 blob, restores it into a fresh fabric, and must
# finish byte-identical to the uninterrupted run. The conformance matrix
# fingerprint-diffs every topology kind (ring / mesh / fat-tree,
# including the 16-chip 64-port mesh) between the reference interpreter
# and the compiled fast engine, plus a mid-run engine switch through a
# fabric checkpoint.
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoakChipLoss' ./internal/cluster
go test -race -timeout 60m -run 'TestEngineConformanceMatrix|TestMesh16ChipConformance|TestEngineSwitchMidRun' ./internal/cluster

echo "== healing: seeded heal soak + heal conformance (race detector) =="
# Every seed rides a full healing arc on a healed ring-4 — killtrunk
# (ARQ takes custody, routes detour) -> restoretrunk (tables roll back,
# pending frames re-drive) -> killchip -> restorechip — checkpoints the
# fabric MID-HEAL (trunk dark, retransmit queue non-empty) as one
# FABCKPT1 blob, and must continue byte-identical to the uninterrupted
# run with the end-to-end ledger balanced and zero pending frames at the
# end. TestHealConformance replays one scheduled arc under the reference
# interpreter and the fast engine and requires identical fingerprints
# and state digests.
SOAK_SEEDS="${SOAK_SEEDS:-20}" go test -race -timeout 60m -run 'TestSoakHeal' ./internal/cluster
go test -race -run 'TestHealConformance|TestHealReroute|TestTrunkARQ|TestPartitionError|TestKillChipAccountsHeldFrames' ./internal/cluster

echo "== telemetry: export determinism + disabled-overhead gate =="
# Exports must be byte-identical across two identical runs, and the
# disabled plane (cfg.Metrics == nil) must cost <1% versus the
# pre-telemetry commit (interleaved same-session legs; see
# scripts/bench_telemetry.sh and BENCH_telemetry.json).
go test -race -run 'TestTelemetry' ./internal/fault
sh scripts/bench_telemetry.sh

echo "== engine: compiled fast path speedup gate =="
# The fast engine must be bit-for-bit identical (enforced above) and at
# least 2x the reference interpreter on the 1,024-byte-packet
# steady-state workload (see scripts/bench_engine.sh and
# BENCH_engine.json).
sh scripts/bench_engine.sh

echo "== healing: idle-overhead gate =="
# Arming -heal on a healthy fabric must cost <1% versus the same fabric
# with healing disabled (interleaved paired legs, min-ratio scoring; see
# scripts/bench_fault.sh and BENCH_fault.json). Fault tolerance is free
# until a fault happens.
sh scripts/bench_fault.sh

echo "== traffic: open-loop determinism + ledger conformance + generation-overhead gate =="
# The production traffic plane: open-loop arrivals must be a pure
# function of (spec, slice) — the checked-in seeded daymini trace
# regenerates byte-identically, record->replay round-trips exactly, and
# one heavy-tailed trace drives the Raw router (both engines, live and
# replayed), the serve daemon, and the Click baseline to the identical
# per-destination delivered-word ledger. Generating arrivals must cost
# <1% of the reference engine stepping the same cycles (see
# scripts/bench_traffic.sh and BENCH_traffic.json).
go test -race ./internal/traffic
go test -race -run 'TestTraceLedgerAcrossConsumers|TestHeavyTail' ./internal/exp
sh scripts/bench_traffic.sh

echo "== serve: daemon-mode smoke =="
# Boot rawrouter -serve as a real process and drive the whole lifecycle
# over HTTP: healthz/readyz, a latched degrade arc that trips the
# throughput SLO gate, /drain -> checkpoint -> clean exit, then two
# restores of the drain checkpoint that must produce byte-identical
# continuations (see scripts/serve_smoke.sh). The same arcs run in-process
# under -race in internal/serve.
go test -race ./internal/serve ./internal/cli
sh scripts/serve_smoke.sh

echo "CI green."
