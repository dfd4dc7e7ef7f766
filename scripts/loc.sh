#!/usr/bin/env bash
# loc.sh — print the size of the program: the non-blank, non-comment
# lines of non-test Go outside e2ebench/ (a separate module, the
# benchmark). ROADMAP aim 2 and the simplicity entries of CHANGES.md
# quote this number.
#
# Usage: loc.sh
#
# A line counts unless it is blank or starts with // after its
# indentation; the code has no /* */ block comments. CI prints the count
# and gates nothing on it.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './e2ebench/*' ! -path './.git/*' -print0 |
  xargs -0 cat | grep -cv -E '^[[:space:]]*$|^[[:space:]]*//'
