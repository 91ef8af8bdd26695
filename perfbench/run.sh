#!/usr/bin/env bash
# Builds the benchmark and edbpd from the checkout it is run in, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload replay|serve|grid --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# every run's scratch files live under .bench_build/ in that root, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/edbpd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/edbpd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its env file and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/edbpd" edbp/cmd/edbpd
) >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" -edbpd "$out/bin/edbpd" -workdir "$out" -commit "$commit" "$@"
