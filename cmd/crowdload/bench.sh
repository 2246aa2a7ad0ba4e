#!/usr/bin/env bash
# Builds crowdrankd and crowdload from this checkout into .bench_build/ at
# the repository root (build output, Go caches and temp files all stay
# there) and runs crowdload with the given arguments from the root, so
# relative paths in them are taken from the root:
#
#   bash cmd/crowdload/bench.sh --workload ingest --seed 3 --seconds 20 --trace 0
#   bash cmd/crowdload/bench.sh -seed 1                  # every workload
#   bash cmd/crowdload/bench.sh -compare a.json b.json
#
# Build output goes to standard error, so the last line of standard output
# is crowdload's JSON result. A checkout without the crowdrank sources
# fails the build and exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/bin"

export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root" && go build -o "$out/bin/crowdrankd" ./cmd/crowdrankd) >&2
(cd "$here" && go build -o "$out/bin/crowdload" .) >&2

cd "$root"
exec .bench_build/bin/crowdload -daemon .bench_build/bin/crowdrankd "$@"
