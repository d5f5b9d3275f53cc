#!/bin/sh
# bench-fault: measure the fault-tolerance planes' cost on healthy runs
# and regenerate BENCH_fault.json, failing if arming the fabric healing
# plane costs an idle (no faults ever fire) run more than GATE_PCT
# (default 1) percent.
#
# Healing off and healing-armed-idle live in the same binary, so the
# script alternates OFF/IDLE legs round-robin and scores the MINIMUM
# per-round ratio idle/off: a host-load burst inflates whole rounds
# (which the minimum discards), while a real per-packet stamping or
# per-slice ARQ-check cost inflates every round's ratio and cannot hide.
# The chip-level fault-hook legs (BenchmarkFaultHookOverhead: none /
# empty-schedule / active) are re-recorded for reference, not gated —
# their nil-guard acceptance was gated when the hooks landed.
set -eu
cd "$(dirname "$0")/.."

ROUNDS="${ROUNDS:-5}"
BENCHTIME="${BENCHTIME:-1s}"
GATE_PCT="${GATE_PCT:-1}"
OUT="${OUT:-BENCH_fault.json}"

WT=$(mktemp -d /tmp/bench_fault.XXXXXX)
BIN="$WT/cur.test"
OFF_OUT="$WT/off.out"
IDLE_OUT="$WT/idle.out"
HOOK_OUT="$WT/hook.out"
cleanup() {
	rm -rf "$WT"
}
trap cleanup EXIT

echo "== bench-fault: building bench binary =="
go test -c -o "$BIN" .

echo "== interleaved healing-idle overhead legs: $ROUNDS rounds x $BENCHTIME =="
: > "$OFF_OUT"
: > "$IDLE_OUT"
i=1
while [ "$i" -le "$ROUNDS" ]; do
	"$BIN" -test.run '^$' -test.benchtime "$BENCHTIME" \
		-test.bench 'BenchmarkHealOverhead/off$' | tee -a "$OFF_OUT"
	"$BIN" -test.run '^$' -test.benchtime "$BENCHTIME" \
		-test.bench 'BenchmarkHealOverhead/idle$' | tee -a "$IDLE_OUT"
	i=$((i + 1))
done

echo "== chip fault-hook legs (for the record, not gated) =="
"$BIN" -test.run '^$' -test.benchtime "$BENCHTIME" -test.count 3 \
	-test.bench 'BenchmarkFaultHookOverhead' | tee "$HOOK_OUT"

awk -v gate_pct="$GATE_PCT" -v out="$OUT" -v rounds="$ROUNDS" \
	-v benchtime="$BENCHTIME" \
	-v date="$(date +%Y-%m-%d)" -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" \
	-v numcpu="$(nproc)" \
	-v cpu="$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo)" '
function push(leg, v) {
	n[leg]++
	vals[leg, n[leg]] = v + 0
	if (min[leg] == "" || v + 0 < min[leg]) min[leg] = v + 0
}
function median(leg,    i, j, tmp, m) {
	m = n[leg]
	for (i = 1; i <= m; i++) sorted[i] = vals[leg, i]
	for (i = 1; i <= m; i++)
		for (j = i + 1; j <= m; j++)
			if (sorted[j] < sorted[i]) { tmp = sorted[i]; sorted[i] = sorted[j]; sorted[j] = tmp }
	return sorted[int((m + 1) / 2)]
}
function list(leg,    i, s) {
	s = ""
	for (i = 1; i <= n[leg]; i++) s = s (i > 1 ? ", " : "") vals[leg, i]
	return s
}
function emit(name, leg) {
	printf "    {\n      \"name\": \"%s\",\n      \"ns_per_op\": [%s],\n      \"median_ns_per_op\": %d,\n      \"min_ns_per_op\": %d\n    }", name, list(leg), median(leg), min[leg] >> out
}
/^BenchmarkHealOverhead\/off/ { push("off", $3) }
/^BenchmarkHealOverhead\/idle/ { push("idle", $3) }
/^BenchmarkFaultHookOverhead\/none/ { push("none", $3) }
/^BenchmarkFaultHookOverhead\/empty-schedule/ { push("empty", $3) }
/^BenchmarkFaultHookOverhead\/active/ { push("active", $3) }
END {
	for (i = 1; i <= n["idle"] && i <= n["off"]; i++) {
		r = vals["idle", i] / vals["off", i]
		if (minratio == "" || r < minratio) minratio = r
	}
	overhead = (minratio - 1) * 100
	printf "{\n" > out
	printf "  \"benchmark\": \"BenchmarkHealOverhead + BenchmarkFaultHookOverhead\",\n  \"date\": \"%s\",\n", date >> out
	printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"num_cpu\": %d,\n", goos, goarch, cpu, numcpu >> out
	printf "  \"sim_cycles_per_op\": 200,\n" >> out
	printf "  \"command\": \"scripts/bench_fault.sh (ROUNDS=%s BENCHTIME=%s)\",\n", rounds, benchtime >> out
	printf "  \"results\": [\n" >> out
	emit("heal-off (ring-4 fabric, healing plane disabled, interleaved)", "off")
	printf ",\n" >> out
	emit("heal-idle (healing armed, no faults: flow stamping + dup filter + empty-ARQ check, interleaved)", "idle")
	printf ",\n" >> out
	emit("fault-hooks: none (no fault plane installed)", "none")
	printf ",\n" >> out
	emit("fault-hooks: empty-schedule (Injector installed, zero events)", "empty")
	printf ",\n" >> out
	emit("fault-hooks: active (stall + flap + DRAM schedule in force)", "active")
	printf "\n  ],\n" >> out
	printf "  \"gate\": {\n    \"heal_idle_overhead_pct\": %.2f,\n    \"bar_pct\": %s,\n    \"compares\": \"min over rounds of the paired ratio idle/off (legs adjacent in time)\"\n  },\n", overhead, gate_pct >> out
	printf "  \"notes\": [\n" >> out
	printf "    \"Acceptance bar: arming -heal on a healthy fabric must cost <%s%% versus the same fabric with healing disabled. The armed-but-idle path adds per-packet flow stamping at ingress, the egress duplicate filter, and one empty-queue check per 64-cycle slice; rerouting, ARQ custody, and table swaps only run when a fault actually fires. OFF and IDLE legs alternate in the same session; each round is scored as the ratio of its adjacent legs and the gate takes the minimum over %s rounds, so load bursts (which inflate whole rounds) are discarded while a real hook cost (which inflates every ratio) cannot hide.\",\n", gate_pct, rounds >> out
	printf "    \"The end-to-end word ledger (injected/delivered/dropped counters) is maintained with healing on OR off, so it is part of the off leg baseline, not the gated delta.\",\n" >> out
	printf "    \"The chip-level fault-hook legs re-record BenchmarkFaultHookOverhead (single router, PermutationTraffic): every hook site guards on a nil raw.FaultPlane, injection stays opt-in via Chip.InstallFaults / -faults. Their <1%% nil-guard acceptance against the pre-hook baseline was gated when the hooks landed and is not re-scored here.\"\n" >> out
	printf "  ]\n}\n" >> out
	printf "healing idle overhead: best paired round idle/off = %.4f -> %+.2f%% (bar %s%%)\n", minratio, overhead, gate_pct
	if (overhead > gate_pct + 0) {
		printf "bench-fault: FAIL: idle healing plane costs %.2f%% > %s%%\n", overhead, gate_pct
		exit 1
	}
	printf "bench-fault: PASS (%s written)\n", out
}' "$OFF_OUT" "$IDLE_OUT" "$HOOK_OUT"
