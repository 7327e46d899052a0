#!/usr/bin/env sh
# lint.sh — run the full static-analysis gate locally, in the same
# order CI's lint job does:
#
#   1. go vet               (stock correctness checks, over the root
#                            module and the perfbench module)
#   2. staticcheck          (if installed; CI installs it pinned)
#   3. govulncheck          (if installed; CI installs it pinned;
#                            skipped in -fast mode)
#   4. clrlint              (the repo's own determinism/concurrency
#                            contracts, ten analyzers — see DESIGN.md
#                            §7 and §13; warm runs replay from the
#                            per-package fact cache)
#
# Usage: scripts/lint.sh [-fast]
#
#   -fast   skip govulncheck (it re-scans the vuln DB every run and
#           dominates wall-clock; the inner loop wants vet+clrlint)
#
# staticcheck and govulncheck are skipped with a notice when the
# binary is absent, so the script is useful in offline containers;
# clrlint builds from ./cmd/clrlint and always runs. Any failing step
# fails the script.
set -eu
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
	case "$arg" in
	-fast) fast=1 ;;
	*)
		echo "usage: scripts/lint.sh [-fast]" >&2
		exit 2
		;;
	esac
done

echo "==> go vet"
go vet ./...
go -C perfbench vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck"
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI runs it pinned)"
fi

if [ "$fast" = 1 ]; then
	echo "==> govulncheck skipped (-fast)"
elif command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck"
	govulncheck ./...
else
	echo "==> govulncheck not installed; skipping (CI runs it pinned)"
fi

echo "==> clrlint"
go run ./cmd/clrlint ./...

echo "lint: all gates passed"
