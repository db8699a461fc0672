#!/usr/bin/env bash
# Static-enforcement gate (run by CI and the `check_lint` ctest):
#
#   scripts/check_lint.sh [path/to/malec_lint] [tree-root]
#
# 1. Runs `malec_lint` over the tree (default: this repo) with the tree's
#    file-scope allowlist, if present. Any finding — checkpoint-state,
#    eventid, determinism, udc-order, strict-parse, or a malformed
#    waiver — fails. So does an allowlist entry that silences nothing:
#    each `<rule> <path-suffix>` must match a finding of its rule in a
#    lint run without the allowlist, at a path-component boundary.
# 2. Drift check (when <root>/tests/test_checkpoint.cpp exists): the
#    stateful-class inventory reported by `malec_lint --list-stateful`
#    must match, both ways, the audited matrix between the
#    `lint-checkpoint-matrix-begin/end` markers in that file. A new
#    saveState/loadState component that is not covered by the checkpoint
#    test fails the build, and so does a stale matrix row whose class no
#    longer exists.
# 3. Schema-drift gate (when <root>/tools/lint/schemas exists): schemas
#    are regenerated with `--emit-schema` into a scratch dir and diffed
#    against the committed goldens, both directions — a reordered
#    saveState field, a new stateful class without a committed schema,
#    and a stale schema for a deleted class all fail. Regenerate with:
#      build/malec_lint --root . --emit-schema tools/lint/schemas
#
# The tree-root argument exists so the fixture suite (tools/lint/fixtures,
# driven by test_lint) can prove that seeded violations make this script
# exit non-zero. Exits non-zero with one line per violation.
set -euo pipefail

cd "$(dirname "$0")/.."
lint="${1:-build/malec_lint}"
root="${2:-.}"
allowlist="$root/tools/lint/allowlist.txt"
matrix="$root/tests/test_checkpoint.cpp"

if [[ ! -x "$lint" ]]; then
  echo "check_lint: '$lint' is not an executable malec_lint" >&2
  exit 2
fi

fail=0

# --- 1. Tree lint -----------------------------------------------------------
args=(--root "$root")
if [[ -f "$allowlist" ]]; then
  args+=(--allowlist "$allowlist")
fi
if ! "$lint" "${args[@]}"; then
  fail=1
fi

# --- 1b. Stale allowlist entries --------------------------------------------
if [[ -f "$allowlist" ]]; then
  # "<rule> <file>" per finding of a lint run without the allowlist.
  found=$("$lint" --root "$root" 2> /dev/null |
      sed -n 's/^\([^:]*\):[0-9]*: \[\([^]]*\)\].*/\2 \1/p' || true)
  while read -r rule suffix _; do
    [[ -z "$rule" || "$rule" == \#* ]] && continue
    hit=0
    while read -r frule file; do
      if [[ "$frule" == "$rule" && ("$file" == "$suffix" ||
            "$file" == */"$suffix") ]]; then
        hit=1
        break
      fi
    done <<< "$found"
    if [[ "$hit" -eq 0 ]]; then
      echo "check_lint: $allowlist entry '$rule $suffix' silences no finding — delete it"
      fail=1
    fi
  done < "$allowlist"
fi

# --- 2. Checkpoint-matrix drift check ---------------------------------------
if [[ -f "$matrix" ]]; then
  # Quoted class names between the matrix markers.
  audited=$(sed -n '/lint-checkpoint-matrix-begin/,/lint-checkpoint-matrix-end/p' \
      "$matrix" | sed -n 's/^ *"\([A-Za-z0-9_]*\)",*$/\1/p')
  if [[ -z "$audited" ]]; then
    echo "check_lint: could not parse the audited-class matrix from $matrix" >&2
    exit 2
  fi
  stateful=$("$lint" --root "$root" --list-stateful)
  for cls in $stateful; do
    if ! grep -qx "$cls" <<< "$audited"; then
      echo "check_lint: stateful class '$cls' declares saveState/loadState but is missing from the $matrix audit matrix"
      fail=1
    fi
  done
  for cls in $audited; do
    if ! grep -qx "$cls" <<< "$stateful"; then
      echo "check_lint: $matrix audits '$cls' which is no longer a stateful class"
      fail=1
    fi
  done
fi

# --- 3. Schema-drift gate ---------------------------------------------------
schemas="$root/tools/lint/schemas"
if [[ -d "$schemas" ]]; then
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
  if ! "$lint" --root "$root" --emit-schema "$scratch" > /dev/null; then
    echo "check_lint: --emit-schema failed" >&2
    exit 2
  fi
  # diff both ways: -r catches committed-but-stale AND fresh-but-uncommitted
  # schema files as well as content drift.
  if ! diff -ru "$schemas" "$scratch" > /dev/null 2>&1; then
    diff -ru "$schemas" "$scratch" | head -40 || true
    echo "check_lint: committed serialization schemas in $schemas drifted from the saveState bodies — review the layout change and regenerate with '$lint --root $root --emit-schema $schemas'"
    fail=1
  fi
fi

if [[ "$fail" -ne 0 ]]; then
  echo "check_lint: FAILED — fix the findings above or add a justified waiver" >&2
  exit 1
fi
if [[ -f "$matrix" ]]; then
  count=$(wc -w <<< "$stateful")
  echo "check_lint: OK — '$root' is clean; $count stateful classes all audited"
else
  echo "check_lint: OK — '$root' is clean"
fi
