#!/usr/bin/env bash
# The engine's performance gate: times this checkout's simulator against a
# base commit's in one binary, interleaved, and exits 1 when the head is
# slower beyond noise (see main.go and gate/gate.go).
#
#   bash tools/abgate/run.sh <base-commit>
#
# The base is extracted with git archive into a temporary directory, its
# module renamed edbp → edbpbase with its own imports rewritten to match,
# and one binary is built against both trees. The checkout and its .git are
# only read. Exit status: 0 pass, 1 the head is slower, 2 the gate could not
# run.
set -euo pipefail

fail() {
	echo "abgate: $*" >&2
	exit 2
}
[[ $# -eq 1 ]] || fail "usage: bash tools/abgate/run.sh <base-commit>"
gate=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$gate/../.." && pwd)
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || fail "$1 is not a commit"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base" || fail "cannot extract $1"
go -C "$tmp/base" mod edit -module edbpbase || fail "cannot rename the base's module"
# Import specs stand one to a line ("edbp/x", name "edbp/x", or
# import "edbp/x"), which no other use of such a string does.
find "$tmp/base" -name '*.go' -exec sed -i -E \
	's#^(\s*(import\s+)?([A-Za-z_][A-Za-z0-9_]*\s+|\.\s+)?)"edbp(/[^"]*)?"(\s*(//.*)?)$#\1"edbpbase\4"\5#' {} +

# Build against an edited copy of this module's go.mod, so the checkout is
# never written.
cp "$gate/go.mod" "$tmp/gate.mod"
go mod edit -modfile="$tmp/gate.mod" -require=edbpbase@v0.0.0 -replace=edbpbase="$tmp/base"
go -C "$gate" build -trimpath -modfile="$tmp/gate.mod" -o "$tmp/abgate" . || fail "cannot build the gate against $1"

echo "abgate: head $root (at $(git -C "$root" rev-parse --short=12 HEAD)) vs base $(git -C "$root" rev-parse --short=12 "$base")"
"$tmp/abgate"
