#!/bin/sh
# --resume must refuse a journal it cannot load (exit 2) and leave the file
# byte-identical. Two damages to copies of a clean journal: one flipped byte
# mid-file (a comma on line 3) and a header of the retired v2 format.
# usage: resume_refuses_damaged_journal.sh HYPERPOWER_BIN JOURNAL
set -u
bin=$1
journal=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for edit in '3s/,/./' '1s/,v3,/,v2,/'; do
  sed "$edit" "$journal" > "$work/damaged.hpj"
  cp "$work/damaged.hpj" "$work/before.hpj"
  "$bin" optimize --problem tiny_mnist --method rand --evals 4 \
    --journal "$work/damaged.hpj" --resume --quiet
  rc=$?
  echo "edit '$edit': exit $rc"
  [ "$rc" -eq 2 ] || exit 1
  cmp "$work/before.hpj" "$work/damaged.hpj" || exit 1
done
