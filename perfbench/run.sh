#!/usr/bin/env bash
# Builds spinnerd from this checkout's cmd/spinnerd and the perfbench
# benchmark binary, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), so the
# benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/spinnerd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/spinnerd and perfbench/ must be present)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" == /* ]] || out="$root/$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config and telemetry live under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/spinnerd" ./cmd/spinnerd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spinnerd "$out/spinnerd" -workdir "$out" "$@"
