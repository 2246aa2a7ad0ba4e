#!/usr/bin/env sh
# Full local gate: formatting, vet, the domain linter, builds, race-enabled
# tests, the invariant-tagged test variant, fuzz and bench smokes, and a
# final check that no test or benchmark process was orphaned. CI and
# pre-commit both run exactly this.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== crowdlint ./... (all 9 checks incl. lockcheck/goroleak/ackflow/srvtimeout) =="
go run ./cmd/crowdlint ./...

echo "== go build ./... =="
go build ./...

echo "== go test -race ./... =="
go test -race ./...

echo "== benchmark module: go -C cmd/crowdload vet ./... and test -short ./... =="
# cmd/crowdload is its own module (replace crowdrank => ../..), so the
# root ./... patterns above skip it; this keeps serve and client changes
# from silently breaking the benchmark.
go -C cmd/crowdload vet ./...
go -C cmd/crowdload test -short ./...

echo "== chaos: SIGKILL mid-ingest and mid-snapshot recovery =="
go test -count=1 -run 'TestChaos' ./internal/serve

echo "== chaos soak: exactly-once acks through the netfault proxy =="
# Short soak by default; set CROWDRANK_SOAK_BATCHES (e.g. 500) for a long
# drill. CROWDRANK_SOAK_SUMMARY captures a JSON run summary (CI uploads it).
go test -count=1 -run 'TestChaosSoakExactlyOnce' ./internal/client

echo "== chaos failover: exactly-once across leader SIGKILL + promotion =="
# Short soak by default; CROWDRANK_FAILOVER_BATCHES lengthens it and
# CROWDRANK_FAILOVER_SUMMARY captures a JSON run summary (CI uploads it).
go test -count=1 -run 'TestChaosFailoverExactlyOnce' ./internal/replica

echo "== fuzz smoke: journal replay =="
go test -run='^$' -fuzz=FuzzJournalReplay -fuzztime=20s ./internal/serve

echo "== fuzz smoke: bitset dedup set equals the map reference =="
go test -run='^$' -fuzz='^FuzzDedupSet$' -fuzztime=20s ./internal/serve

echo "== fuzz smoke: live ingest, journal replay, snapshot+suffix and follower give one cut =="
go test -run='^$' -fuzz='^FuzzCommitPaths$' -fuzztime=20s ./internal/serve

echo "== fuzz smoke: snapshot load =="
go test -run='^$' -fuzz=FuzzSnapshotLoad -fuzztime=20s ./internal/snapshot

echo "== fuzz smoke: replication frame decoder =="
go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=20s ./internal/replica

echo "== fuzz smoke: vote index folded in chunks equals a cold build =="
go test -run='^$' -fuzz=FuzzIndexFold -fuzztime=20s ./internal/core

echo "== go test -tags crowdrank_invariants ./... =="
go test -tags crowdrank_invariants ./...

echo "== bench smoke: BenchmarkInfer / BenchmarkSAPSSearch / BenchmarkBuildClosure / BenchmarkRecover / BenchmarkRankAfterIngest / BenchmarkRankWarmUp run once =="
# Execution only, no timing gate: performance is compared end to end with
# bash cmd/crowdload/bench.sh -compare cmd/crowdload/results/BENCH_seed.json.
go test -run '^$' -bench '^(BenchmarkInfer|BenchmarkSAPSSearch|BenchmarkBuildClosure|BenchmarkRecover|BenchmarkRankAfterIngest|BenchmarkRankWarmUp)$' -benchtime 1x . ./internal/serve

echo "== no orphaned crowdrankd, crowdload or test processes =="
./scripts/check-orphans.sh

echo "== all checks passed =="
