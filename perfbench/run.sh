#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload enrich-cold --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache and the go command's own state
# (telemetry lives under the config directory), and run scratch go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
export CARGO_TARGET_DIR="$out"
# One vCPU: on a shared VM each vCPU speeds up and slows down on its own,
# so a run pinned to one sees one speed instead of a mix that changes as
# the scheduler moves its threads.
if command -v taskset >/dev/null; then
	exec taskset -c "$(taskset -pc $$ | sed 's/.*: *//; s/[,-].*//')" "$out/perfbench" "$@"
fi
exec "$out/perfbench" "$@"
