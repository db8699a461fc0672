#!/usr/bin/env bash
# Doc-consistency gate (run by CI, and locally before landing a spec):
#
#   scripts/check_docs.sh [path/to/malec_bench]
#
# 1. Every experiment spec registered in `malec_bench --list` must have a
#    row in docs/PAPER_MAPPING.md — a new spec without its paper mapping
#    fails the build.
# 2. Every spec named in a PAPER_MAPPING.md table row must still be
#    registered — a removed/renamed spec leaves a stale row that fails too.
# 3. The MALEC_* names the code reads (string literals passed to getenv,
#    envU64 or envOr in src/, bench/ and examples/) must equal the MALEC_*
#    rows of README's environment table — an undocumented knob and a row
#    for a knob nothing reads both fail.
# 4. Every format docs/FILE_FORMATS.md documents under a
#    "## … (`*.ext`)" heading must state, in its section's first `version`
#    table row, the version its constant in src/ writes (kTraceVersion,
#    kPlanVersion, kCkptVersion, kJournalVersion, kStoreVersion).
#
# Exits non-zero with one line per violation.
set -euo pipefail

cd "$(dirname "$0")/.."
bench="${1:-build/malec_bench}"
mapping="docs/PAPER_MAPPING.md"

if [[ ! -x "$bench" ]]; then
  echo "check_docs: '$bench' is not an executable malec_bench" >&2
  exit 2
fi
if [[ ! -f "$mapping" ]]; then
  echo "check_docs: $mapping is missing" >&2
  exit 2
fi

# `--list` prints one "  <name>  <title>" line per spec between the header
# and the trailing registry summary.
registered=$("$bench" --list | awk '/^  [a-z]/{print $1}')
if [[ -z "$registered" ]]; then
  echo "check_docs: could not parse any spec from '$bench --list'" >&2
  exit 2
fi

# Table rows look like "| `name` | ..." — first backticked cell is the spec.
documented=$(sed -n 's/^| `\([a-z0-9_]*\)`.*/\1/p' "$mapping")

fail=0
for spec in $registered; do
  if ! grep -qx "$spec" <<< "$documented"; then
    echo "check_docs: spec '$spec' is registered but has no row in $mapping"
    fail=1
  fi
done
for spec in $documented; do
  if ! grep -qx "$spec" <<< "$registered"; then
    echo "check_docs: $mapping documents '$spec' which is not registered"
    fail=1
  fi
done

read_env=$(grep -rhoE '\b(getenv|envU64|envOr)\("MALEC_[A-Z0-9_]+"' \
             src bench examples | grep -oE 'MALEC_[A-Z0-9_]+' | sort -u || true)
# Table rows look like "| `MALEC_NAME` | effect |".
table_env=$(sed -n 's/^| `\(MALEC_[A-Z0-9_]*\)`.*/\1/p' README.md | sort -u)
for var in $read_env; do
  if ! grep -qx "$var" <<< "$table_env"; then
    echo "check_docs: $var is read by the code but has no row in README.md's environment table"
    fail=1
  fi
done
for var in $table_env; do
  if ! grep -qx "$var" <<< "$read_env"; then
    echo "check_docs: README.md's environment table documents $var which nothing reads"
    fail=1
  fi
done

formats="docs/FILE_FORMATS.md"
declare -A version_const=([mtrace]=kTraceVersion [mplan]=kPlanVersion
                          [mckpt]=kCkptVersion [mjournal]=kJournalVersion
                          [mstore]=kStoreVersion)
# One "<ext> <documented version>" line per "## … (`*.ext`)" section; the
# version is empty when the section has no `version` row.
documented_versions=$(awk '
  function flush() { if (ext != "") print ext, ver }
  /^## / {
    flush(); ext = ""; ver = ""; seen = 0
    if (match($0, /\(`\*\.[a-z]+`\)/)) ext = substr($0, RSTART + 4, RLENGTH - 6)
    next
  }
  ext != "" && !seen && /^\|/ {
    n = split($0, cell, "|")
    for (i = 2; i < n; i++) {
      c = cell[i]; gsub(/^ +| +$/, "", c)
      if (c == "version") { ver = cell[i + 1]; gsub(/[ `]/, "", ver); seen = 1; break }
    }
  }
  END { flush() }' "$formats")
format_count=0
while read -r ext documented; do
  [[ -z "$ext" ]] && continue
  format_count=$((format_count + 1))
  const="${version_const[$ext]:-}"
  if [[ -z "$const" ]]; then
    echo "check_docs: $formats documents *.$ext, which has no version constant in this script"
    fail=1
    continue
  fi
  actual=$(grep -rhoE "\b$const = [0-9]+" src | grep -oE '[0-9]+$' | head -1 || true)
  if [[ "$documented" != "$actual" ]]; then
    echo "check_docs: $formats gives *.$ext version ${documented:-(none)} but $const is ${actual:-(not found)}"
    fail=1
  fi
done <<< "$documented_versions"

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED — docs are out of sync with the spec registry, the environment knobs or the format versions" >&2
  exit 1
fi
count=$(wc -w <<< "$registered")
env_count=$(wc -w <<< "$read_env")
echo "check_docs: OK — $count specs all mapped in $mapping, $env_count env vars all in README.md, $format_count format versions match $formats"
