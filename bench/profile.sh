#!/usr/bin/env bash
# profile.sh shows where one workload's time goes: it takes a CPU profile of
# an untraced benchmark run and rolls the flat samples of `go tool pprof
# -top` up by package into cpu.<pkg> shares. Run it from the repository
# root:
#
#   bash bench/profile.sh optimize [seed] [seconds]
#
# The profile is kept in .bench_build/cpu.<workload>.pprof for
# `go tool pprof -list <regexp>`.
set -euo pipefail
workload=${1:?usage: bench/profile.sh <optimize|campaign|edge-scale> [seed] [seconds]}
seed=${2:-42}
seconds=${3:-25}
out="$(pwd)/.bench_build"
prof="$out/cpu.$workload.pprof"
bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --cpuprofile "$prof" >/dev/null
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local
go tool pprof -top -nodecount=1000000 -nodefraction=0 "$out/bench" "$prof" 2>/dev/null | awk -v w="$workload" '
    # Rows after the header: flat flat% sum% cum cum% function.
    header { pct = $2; sub(/%/, "", pct); fn = $6
        if (fn ~ /^((runtime|internal\/runtime)[.\/]|gcWriteBarrier)/) pkg = "runtime"
        else if (fn ~ /^e2clab\/internal\/sim\/shard\./) pkg = "shard"
        else if (fn ~ /^e2clab\/internal\/(sim|plantnet|surrogate|bo|scenario|stats)\./) {
            pkg = fn; sub(/^e2clab\/internal\//, "", pkg); sub(/\..*/, "", pkg)
        } else pkg = "other"
        share[pkg] += pct }
    /^ *flat +flat%/ { header = 1 }
    END {
        n = split("sim shard plantnet surrogate bo scenario stats runtime other", order, " ")
        printf "%-14s", "workload"
        for (i = 1; i <= n; i++) printf " %9s", "cpu." order[i]
        printf "\n%-14s", w
        for (i = 1; i <= n; i++) printf " %8.1f%%", share[order[i]]
        printf "\n"
    }'
