#!/usr/bin/env bash
# verify.sh — the tier-1 verification recipe (see ROADMAP.md). Beyond the
# build and full test suite, it checks formatting (gofmt) and that go.mod
# is tidy, vets the tree, runs simlint (the custom static-analysis gate
# machine-enforcing the determinism / RNG-discipline / zero-alloc /
# kernel-synchronization standing invariants), race-checks the packages
# with goroutine-parallel paths (the par.For fan-out that the pools below
# share, surrogate worker pool, bo batch scoring,
# plantnet repeated-run pool — including the simulated-network link,
# fault-schedule, resilience-policy, and piecewise-arrival code it drives —
# scenario suite runner, tune's concurrent trial executor, space
# transforms it exercises, and the optimization Manager whose trials share
# its evaluation log and provenance archive), and runs the
# allocation-regression gate: the kernel's steady-state zero-alloc
# contracts (sim/alloc_test.go) must hold, or the kernel's
# freelist/calendar pooling has silently rotted, and
# TestAllocCeilings (alloc_test.go) caps the allocations of the surrogate,
# ask/tell, campaign, sharded-kernel and Table II/III hot paths. A smoke gate
# runs every kernel benchmark once. A fuzz gate spends 10 s mutating
# surrogate archives (FuzzUnmarshal), so an archive that hangs or panics
# a reloaded model fails CI instead of a user's finalize() reload, and
# another spends 10 s mutating processor-sharing op scripts
# (FuzzSharedResource), so a SharedResource that drifts from its
# divide-per-job reference fails CI, and a third spends 10 s mutating
# calendar op scripts (FuzzCalendar), so a ladder whose firing order drifts
# from the single-heap reference, or whose heaps or node back-pointers
# break, fails CI. A single-P
# gate re-runs the shard tests under GOMAXPROCS=1, so a shard barrier that
# needs a second P to make progress fails CI instead of hanging a user's
# run. Last, it gates the nested bench/ module (the repository benchmark,
# which owns every timing measurement), which the root-module gates above
# cannot see: vet, the smoke test that drives every workload at a tiny
# size — the only end-to-end run of the sharded edge-scale suite — and
# simlint over it.
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
    ./internal/space/... ./internal/core/... ./internal/provenance/...
    ./internal/par/...
)

# Formatting gate: gofmt -l lists unformatted files and exits 0, so any
# output is the failure.
gofmt_gate() {
    local out
    out=$(gofmt -l .)
    if [ -n "$out" ]; then
        echo "files need gofmt:" >&2
        echo "$out" >&2
        return 1
    fi
}

gate gofmt gofmt_gate
gate tidy go mod tidy -diff
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
# (TestZeroAllocShardWindows); TestAllocCeilings bounds the hot paths above
# the kernel.
gate zero-alloc go test -run 'TestZeroAlloc|TestAllocCeilings' -count=1 . ./internal/sim/ ./internal/sim/shard/
# Kernel benchmark gate: one iteration of every benchmark under
# internal/sim, so a kernel benchmark that panics or stops building fails CI
# (no other gate runs a Go benchmark). Timings here mean nothing; bench/
# owns them.
gate kernel-bench go test -run '^$' -bench . -benchtime 1x ./internal/sim/...
# Fuzz gate: Unmarshal must reject or faithfully reload any archive. The
# seed corpus (testdata/fuzz/FuzzUnmarshal) always runs under the test gate
# above; this gate mutates it for a fixed 10 s. A failing input is saved
# into that corpus, where it then fails the test gate until it is fixed.
gate fuzz go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s ./internal/surrogate
# Fuzz gate: SharedResource must match its reference (refPS) bit for bit on
# any op script; the seed corpus is testdata/fuzz/FuzzSharedResource.
gate fuzz-ps go test -run '^$' -fuzz '^FuzzSharedResource$' -fuzztime 10s ./internal/sim
# Fuzz gate: the ladder calendar must fire in the reference heap's order and
# keep its tier invariants on any op script; the seed corpus is
# testdata/fuzz/FuzzCalendar.
gate fuzz-calendar go test -run '^$' -fuzz '^FuzzCalendar$' -fuzztime 10s ./internal/sim
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
