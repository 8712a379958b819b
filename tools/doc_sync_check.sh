#!/bin/sh
# Docs-sync check (CI fast tier): fail when the documentation index
# drifts from the code.  Five invariants:
#
#   1. every file under docs/ is linked from the README's Map table;
#   2. every tlbshoot subcommand defined in bin/tlbshoot_cli.ml is
#      documented (as `tlbshoot <name>`) in EXPERIMENTS.md;
#   3. every versioned JSON schema string emitted anywhere in bin/ or
#      lib/ (tlbshoot-*-v1) is named in EXPERIMENTS.md;
#   4. the reverse of 3: every schema EXPERIMENTS.md names still exists
#      in the code, so the docs cannot keep advertising a schema that
#      was renamed or deleted;
#   5. the reverse of 2: every `tlbshoot <name>` cited in README.md,
#      EXPERIMENTS.md or docs/ is a real subcommand, so a deleted one
#      cannot stay advertised.
#
# POSIX sh + grep/sed only; run from the repository root:
#
#   sh tools/doc_sync_check.sh
set -u

fail=0
complain() {
  echo "doc-sync: $1" >&2
  fail=1
}

[ -f README.md ] && [ -f EXPERIMENTS.md ] && [ -d docs ] || {
  echo "doc-sync: run from the repository root" >&2
  exit 2
}

# 1. Every long-form document is reachable from the README map.
for doc in docs/*.md; do
  grep -q "(${doc})" README.md ||
    complain "${doc} is not linked from README.md"
done

# 2. Every CLI subcommand is documented in EXPERIMENTS.md.
cmds=$(sed -n 's/.*cmd "\([a-z0-9]*\)".*/\1/p' bin/tlbshoot_cli.ml | sort -u)
for cmd in $cmds; do
  grep -q "tlbshoot ${cmd}" EXPERIMENTS.md ||
    complain "subcommand 'tlbshoot ${cmd}' is not documented in EXPERIMENTS.md"
done

# 3. Every versioned JSON schema the code can emit is documented.
for schema in $(grep -rho 'tlbshoot-[a-z0-9-]*-v1' bin lib | sort -u); do
  grep -q "${schema}" EXPERIMENTS.md ||
    complain "JSON schema '${schema}' is not documented in EXPERIMENTS.md"
done

# 4. Every schema the docs advertise still exists in the code.
for schema in $(grep -ho 'tlbshoot-[a-z0-9-]*-v1' EXPERIMENTS.md docs/*.md | sort -u); do
  grep -rq "${schema}" bin lib ||
    complain "JSON schema '${schema}' is documented but no longer emitted by bin/ or lib/"
done

# 5. Every subcommand the docs cite still exists.
for cited in $(grep -ho '`tlbshoot [a-z0-9]*' README.md EXPERIMENTS.md docs/*.md |
  sed 's/^`tlbshoot //' | sort -u); do
  echo "$cmds" | grep -qx "${cited}" ||
    complain "'tlbshoot ${cited}' is cited in the docs but is not a subcommand"
done

if [ "$fail" -eq 0 ]; then
  echo "doc-sync: README map, subcommand index and schema index are in sync"
fi
exit "$fail"
