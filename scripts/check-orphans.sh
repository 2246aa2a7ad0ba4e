#!/usr/bin/env sh
# Fails, listing them, if any process started by the tests or the benchmark
# outlived its parent: an orphan (PPID 1) whose command names crowdrankd or
# crowdload, or a go test binary (go-build.../<pkg>.test, e.g. a re-exec'd
# chaos child). scripts/check.sh runs it as its last step; run it alone
# after bash cmd/crowdload/bench.sh to confirm nothing was left behind.
set -eu

# Zombies (stat Z) are already dead and only wait for init to reap them.
orphans=$(ps -eo pid=,ppid=,stat=,args= | awk '
	$2 == 1 && $3 !~ /^Z/ && ($0 ~ /crowdrankd|crowdload/ || $4 ~ /go-build[^ ]*\/[^\/ ]*\.test$/)
')
if [ -n "$orphans" ]; then
	echo "orphaned processes left running (pid ppid stat command):" >&2
	echo "$orphans" >&2
	exit 1
fi
echo "no orphaned processes"
