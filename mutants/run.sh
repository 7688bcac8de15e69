#!/usr/bin/env bash
# Runs the mutation check: for each patch (default: every mutants/*.patch)
# it copies the repository's files (tracked and untracked, not ignored) to
# a temporary directory, applies the patch there with `git apply`, requires
# the mutant to build, and requires the test named in the patch header to
# fail. A patch header reads:
#
#   Mutant: <what the patch breaks>
#   Package: <package pattern, e.g. ./internal/cache>
#   Test: <top-level test name>
#
# Run it from the repository root:
#
#   bash mutants/run.sh [mutants/<name>.patch ...]
#
# It exits 1 when a mutant survives, fails to apply or fails to build.
set -uo pipefail

root=$(pwd)
if [ $# -gt 0 ]; then patches=("$@"); else patches=("$root"/mutants/*.patch); fi
bad=0
for p in "${patches[@]}"; do
	p=$(cd "$(dirname "$p")" && pwd)/$(basename "$p")
	name=$(basename "$p" .patch)
	pkg=$(sed -n 's/^Package: //p' "$p" | head -1)
	test=$(sed -n 's/^Test: //p' "$p" | head -1)
	if [ -z "$pkg" ] || [ -z "$test" ]; then
		echo "BAD      $name: header lacks Package: or Test:"
		bad=1
		continue
	fi
	dir=$(mktemp -d)
	git ls-files -z -co --exclude-standard | tar --null --ignore-failed-read -T - -cf - | tar -xf - -C "$dir"
	if ! (cd "$dir" && git apply "$p"); then
		echo "BAD      $name: does not apply"
		bad=1
	elif ! (cd "$dir" && go build ./... && go test -count=1 -run '^$' "$pkg" >/dev/null); then
		echo "BAD      $name: mutant or its test does not build"
		bad=1
	elif (cd "$dir" && go test -count=1 -run "^${test}\$" "$pkg" >/dev/null 2>&1); then
		echo "SURVIVED $name: $test passes in $pkg"
		bad=1
	else
		echo "caught   $name: $test fails in $pkg"
	fi
	rm -rf "$dir"
done
exit $bad
