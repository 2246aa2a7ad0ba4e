#!/usr/bin/env sh
# Prints the Go lines added, removed and net against a base commit, test
# files (_test.go) and the rest separately: the per-change net line count.
# Each row gives the raw counts, then the same counts without blank lines
# and comment-only lines ("code"), so that deleting comments does not pass
# for deleting code. Compares the working tree, so run it after `git add`
# to count new files.
#
#   scripts/netlines.sh [base]    # base defaults to HEAD~1
set -eu
cd "$(dirname "$0")/.."
base=${1:-HEAD~1}
git diff -U0 --no-color --no-ext-diff "$base" -- '*.go' | awk '
	/^diff --git / {
		kind = ($NF ~ /_test\.go$/) ? "test" : "non-test"
		inhunk = 0
		next
	}
	/^@@/ { inhunk = 1; next }
	!inhunk { next } # file headers
	/^[+-]/ {
		sign = substr($0, 1, 1)
		body = substr($0, 2)
		sub(/^[ \t]+/, "", body)
		code = body != "" && body !~ /^\/\//
		if (sign == "+") {
			add[kind]++
			if (code) cadd[kind]++
		} else {
			del[kind]++
			if (code) cdel[kind]++
		}
	}
	END {
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "%-8s +%d -%d net %+d    code +%d -%d net %+d\n", k,
				add[k], del[k], add[k] - del[k], cadd[k], cdel[k], cadd[k] - cdel[k]
		}
	}'
