#!/usr/bin/env bash
# Builds maod, maorouter and the perfbench binary from the sources of
# the checkout this script sits in, then runs perfbench:
#
#   bash perfbench/run.sh --workload cold-fresh --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) goes under .bench_build at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/bin/" ./cmd/maod ./cmd/maorouter)
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/perfbench" "$@"
