#!/bin/sh
# Usage: scripts/identity.sh BASE NEW         compare two binaries
#        scripts/identity.sh --check NEW      compare NEW to identity.golden
#        scripts/identity.sh --check-quick NEW   only the "# runtest" lines
#        scripts/identity.sh --bless NEW      rewrite identity.golden
#
# Runs every dpa_bench argument list in identity.cmds (next to this
# script) and compares its stdout, plus the file it writes where the list
# says @OUT. Against BASE, the outputs must be cmp-identical; exits 1
# naming the first command whose outputs differ. Against the golden file,
# each command's line there holds the MD5 of its stdout and of its @OUT
# file ("-" for none); exits 1 after naming every command that differs.
# Either way a command that fails exits 1. Stdout is compared with the
# scratch path of @OUT replaced by the literal "@OUT", since commands
# that write it print where.
set -u
if [ $# -lt 2 ]; then
  echo "usage: $0 BASE NEW | --check NEW | --check-quick NEW | --bless NEW" >&2
  exit 2
fi
dir=$(dirname "$0")
cmds=$dir/identity.cmds golden=$dir/identity.golden
case $1 in
--check | --check-quick | --bless) mode=$1 new=$2 ;;
*) mode=compare base=$1 new=$2 ;;
esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run SIDE BIN ARGS: SIDE's normalized stdout in $tmp/SIDE.out and its
# @OUT file, if any, in $tmp/SIDE.file.
run() {
  args=$(printf '%s' "$3" | sed "s|@OUT|$tmp/out|g")
  # shellcheck disable=SC2086
  if ! "$2" $args < /dev/null > "$tmp/raw"; then
    echo "identity: '$3' failed under $1 ($2)" >&2
    exit 1
  fi
  sed "s|$tmp/out|@OUT|g" "$tmp/raw" > "$tmp/$1.out"
  rm -f "$tmp/$1.file"
  if [ -e "$tmp/out" ]; then mv "$tmp/out" "$tmp/$1.file"; fi
}

md5() { if [ -e "$1" ]; then md5sum < "$1" | cut -d' ' -f1; else echo -; fi; }

n=0 bad=0
if [ "$mode" = --bless ]; then : > "$tmp/golden"; fi
while IFS= read -r line; do
  case $line in '' | '#'*) continue ;; esac
  # A trailing "# runtest" marks the slice `dune runtest` checks.
  cmd=${line% # runtest}
  if [ "$mode" = --check-quick ] && [ "$cmd" = "$line" ]; then continue; fi
  n=$((n + 1))
  run new "$new" "$cmd"
  case $mode in
  compare)
    run base "$base" "$cmd"
    if ! cmp -s "$tmp/base.out" "$tmp/new.out"; then
      echo "identity: stdout differs for '$cmd'" >&2
      exit 1
    fi
    # cmp fails on a missing file, so an @OUT file only one side wrote
    # differs too.
    if { [ -e "$tmp/base.file" ] || [ -e "$tmp/new.file" ]; } \
      && ! cmp -s "$tmp/base.file" "$tmp/new.file"; then
      echo "identity: @OUT file differs for '$cmd'" >&2
      exit 1
    fi
    ;;
  --bless)
    echo "$(md5 "$tmp/new.out") $(md5 "$tmp/new.file") $cmd" >> "$tmp/golden"
    ;;
  *)
    got="$(md5 "$tmp/new.out") $(md5 "$tmp/new.file") $cmd"
    if ! grep -qxF -- "$got" "$golden"; then
      want=$(awk -v c="$cmd" \
        '{ l = $0; sub(/^[^ ]* [^ ]* /, "", l) } l == c { print $1, $2 }' \
        "$golden")
      echo "identity: '$cmd' hashes to ${got%% $cmd}, golden:" \
        "${want:-no line}" >&2
      bad=$((bad + 1))
      continue
    fi
    ;;
  esac
  echo "identity: ok  $cmd"
done < "$cmds"
case $mode in
compare) echo "identity: $n commands byte-identical" ;;
--bless)
  mv "$tmp/golden" "$golden"
  echo "identity: blessed $n commands into $golden"
  ;;
*)
  if [ $bad -gt 0 ]; then
    echo "identity: $bad of $n commands differ from $golden" >&2
    exit 1
  fi
  echo "identity: $n commands match $golden"
  ;;
esac
