#!/usr/bin/env bash
# Fails if the compiler keeps a bounds check between a `// bce:begin` and
# a `// bce:end` marker in internal/stencil, internal/grid or
# internal/detsum: the radius-2 Go row loop (stencilRow), the fused
# kernels' row epilogues (residual, smoothing and recurrence rows), the
# face-row moves of the halo pack/unpack (moveRow) and the exact-dot
# front end's term loop are meant to run check-free. The compiler's
# -d=ssa/check_bce report lists every check it keeps, by file and line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
report=$(go build -gcflags=-d=ssa/check_bce ./internal/stencil ./internal/grid ./internal/detsum 2>&1)
status=0
regions=0
for f in internal/stencil/*.go internal/grid/*.go internal/detsum/*.go; do
	while read -r lo hi; do
		regions=$((regions + 1))
		hits=$(awk -F: -v f="$f" -v lo="$lo" -v hi="$hi" '$1 == f && $2 > lo && $2 < hi' <<<"$report")
		if [ -n "$hits" ]; then
			echo "$f:$lo-$hi: bounds check inside a bce:begin/bce:end region:" >&2
			echo "$hits" >&2
			status=1
		fi
	done < <(awk '/\/\/ bce:begin/ { lo = FNR } /\/\/ bce:end/ { print lo, FNR }' "$f")
done
# Without markers the check would pass by checking nothing.
if [ "$regions" -lt 6 ]; then
	echo "found $regions bce:begin/bce:end regions, want the stencil row kernel, the three fused epilogues, the face-row move and the front end's term loop" >&2
	status=1
fi
exit $status
