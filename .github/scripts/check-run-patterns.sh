#!/usr/bin/env bash
# Fails if a `go test ... -run PATTERN` in ci.yml has an alternative that
# matches no test in the packages it is applied to: a smoke job whose
# regex names a renamed test would otherwise pass by running nothing.
# `-run NONE` (the bench and fuzz invocations) is meant to match nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
status=0
while IFS= read -r cmd; do
	pattern=$(sed -n "s/.*-run[ =]'\([^']*\)'.*/\1/p" <<<"$cmd")
	[ -n "$pattern" ] || continue
	pkgs=$(tr ' ' '\n' <<<"$cmd" | grep -E '^\.(/|$)' | tr '\n' ' ')
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		# shellcheck disable=SC2086
		if ! grep -qE '^(Test|Fuzz|Example)' <<<"$(go test -list "$alt" $pkgs)"; then
			echo "ci.yml: -run alternative '$alt' matches no test in $pkgs" >&2
			status=1
		fi
	done
done < <(grep -E '^\s*run:.*go test' .github/workflows/ci.yml | sed 's/&&/\n/g' | grep -E 'go test.*-run')
exit $status
