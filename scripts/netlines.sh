#!/usr/bin/env sh
# Prints the Go lines added, removed and net against a base commit, test
# files (_test.go) and the rest separately: the per-change net line count.
# Compares the working tree, so run it after `git add` to count new files.
#
#   scripts/netlines.sh [base]    # base defaults to HEAD~1
set -eu
cd "$(dirname "$0")/.."
base=${1:-HEAD~1}
git diff --numstat "$base" -- '*.go' | awk '
	$1 == "-" { next } # binary
	{
		kind = ($3 ~ /_test\.go$/) ? "test" : "non-test"
		add[kind] += $1
		del[kind] += $2
	}
	END {
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "%-8s +%d -%d net %+d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
