#!/bin/sh
# Usage: scripts/identity.sh BASE NEW [CMDS]
#
# Runs every dpa_bench argument list in CMDS (default
# scripts/identity.cmds) through the BASE and NEW binaries and compares
# their stdout, plus the file each writes where the list says @OUT.
# Exits 1 naming the first command whose outputs differ, or that fails
# under either binary.
set -u
base=$1 new=$2 cmds=${3:-$(dirname "$0")/identity.cmds}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
n=0
while IFS= read -r line; do
  case $line in '' | '#'*) continue ;; esac
  n=$((n + 1))
  for side in base new; do
    if [ "$side" = base ]; then bin=$base; else bin=$new; fi
    # Both sides write the same path (it may appear in stdout); each
    # side's file is set aside after its run.
    args=$(printf '%s' "$line" | sed "s|@OUT|$tmp/out|g")
    # shellcheck disable=SC2086
    if ! "$bin" $args < /dev/null > "$tmp/$side.out"; then
      echo "identity: '$line' failed under $side ($bin)" >&2
      exit 1
    fi
    if [ -e "$tmp/out" ]; then mv "$tmp/out" "$tmp/$side.file"; fi
  done
  if ! cmp -s "$tmp/base.out" "$tmp/new.out"; then
    echo "identity: stdout differs for '$line'" >&2
    exit 1
  fi
  if [ -e "$tmp/base.file" ] && ! cmp -s "$tmp/base.file" "$tmp/new.file"; then
    echo "identity: @OUT file differs for '$line'" >&2
    exit 1
  fi
  rm -f "$tmp/base.file" "$tmp/new.file"
  echo "identity: ok  $line"
done < "$cmds"
echo "identity: $n commands byte-identical"
