#!/usr/bin/env bash
# verify.sh — the tier-1 verification recipe (see ROADMAP.md). Beyond the
# build and full test suite, it vets the tree, runs simlint (the custom
# static-analysis gate machine-enforcing the determinism / RNG-discipline /
# zero-alloc / kernel-synchronization / checkpoint-schema standing
# invariants), race-checks the packages with goroutine-parallel paths
# (surrogate worker pool, bo batch scoring, plantnet repeated-run pool —
# including the simulated-network link, fault-schedule, resilience-policy,
# and piecewise-arrival code it drives — scenario suite runner, tune's
# concurrent trial executor, space transforms it exercises), and runs the
# allocation-regression gate: the kernel's steady-state zero-alloc
# contracts (sim/alloc_test.go) must hold, or the freelist/calendar work of
# PR 3 has silently rotted. A single-P gate re-runs the shard tests under
# GOMAXPROCS=1, so a shard barrier that needs a second P to make progress
# fails CI instead of hanging a user's run. Last, it gates the nested
# bench/ module (the repository benchmark), which the root-module gates
# above cannot see: vet, the smoke test that drives every workload at a
# tiny size — the only end-to-end run of the sharded edge-scale suite —
# and simlint over it.
# For wall-clock trends, diff bench snapshots with scripts/bench_compare.sh
# (flags >10% ns/op or allocs/op growth between two scripts/bench.sh
# outputs) and render the committed history with scripts/bench_report.sh.
#
# Each gate's wall-clock time is reported at exit (also on failure) so a
# creeping gate shows up in CI logs before it becomes the bottleneck. When
# the simlint gate fails, its findings are re-emitted as JSON to
# $SIMLINT_JSON (default simlint-findings.json) for CI artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

gate_names=()
gate_secs=()

timings() {
    local i
    echo
    echo "gate timings:"
    for i in "${!gate_names[@]}"; do
        printf '  %-24s %4ss\n' "${gate_names[$i]}" "${gate_secs[$i]}"
    done
}
trap timings EXIT

gate() {
    local name="$1" start rc=0
    shift
    start=$SECONDS
    "$@" || rc=$?
    gate_names+=("$name")
    gate_secs+=($((SECONDS - start)))
    if [ "$rc" -ne 0 ]; then
        echo "verify: gate '$name' failed (exit $rc)" >&2
        exit "$rc"
    fi
}

# Static-analysis gate: exits 1 on any unsuppressed finding. On failure the
# findings are preserved machine-readably for the CI artifact step.
simlint_gate() {
    if ! go run ./cmd/simlint; then
        local out="${SIMLINT_JSON:-simlint-findings.json}"
        go run ./cmd/simlint -json >"$out" 2>/dev/null || true
        echo "simlint: findings written to $out" >&2
        return 1
    fi
}

race_pkgs=(
    ./internal/surrogate/... ./internal/bo/... ./internal/fault/...
    ./internal/resilience/... ./internal/plantnet/... ./internal/scenario/...
    ./internal/sim/... ./internal/workload/... ./internal/tune/...
    ./internal/space/...
)

gate build go build ./...
gate vet go vet ./...
gate simlint simlint_gate
gate test go test ./...
gate race go test -race "${race_pkgs[@]}"
# Chaos gate: the faulted and policied campaign paths — churn/crash/flap
# hooks, resilience checkpoints (retry/hedge/breaker/failover), and the
# availability sweep — re-run under the race detector with a real
# (uncached) pass, since these exercise the parallel suite runner and
# repeated-run pool against mutated engine state.
gate chaos-race go test -race -count=1 -run 'Fault|Chaos|Resilien|Availability|Flap|Crash|Churn' \
    ./internal/plantnet/ ./internal/scenario/
# Allocation-regression gate: -count=1 forces a real (uncached) run. The
# sharded coordinator's steady-state window loop carries the same contract
# (TestZeroAllocShardWindows).
gate zero-alloc go test -run 'TestZeroAlloc' -count=1 ./internal/sim/ ./internal/sim/shard/
# Single-P gate: the sharded tests with one P, where the barrier's helpers
# share it with the coordinator (TestShardBarrierStress) and sharded runs
# go inline; the timeout turns a barrier hang into a failure.
gate single-p env GOMAXPROCS=1 go test -count=1 -timeout 120s -run Shard \
    ./internal/sim/shard ./internal/plantnet
# Benchmark gate: bench/ has its own go.mod, so `./...` above skips it. These
# are the gate commands bench/README.md gives.
bench_gate() {
    (cd bench && go vet ./... && go test ./...) && go run ./cmd/simlint -C bench
}
gate bench bench_gate
echo "verify OK"
