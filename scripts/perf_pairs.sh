#!/bin/sh
# Usage: scripts/perf_pairs.sh BASE_EXE NEW_EXE WORKLOAD SEED N
#
# Runs N alternating pairs of two perfbench binaries on one workload and
# seed — `--workload WORKLOAD --seed SEED --seconds 15 --trace 0`, the
# BASE side first in odd pairs and the NEW side first in even ones — and
# prints each side's host_cpu_s per run, its median and quartiles, how
# many pairs each side won (lower host_cpu_s; ties count for neither),
# each pair's NEW / BASE host_cpu_s ratio and the median of those ratios
# (the two runs of a pair are adjacent, so they share the host's state and
# the ratio cancels drift that spreads either side's own runs),
# each side's median, minimum and maximum alloc_words_per_item and
# peak_heap_mb (so a count claim can show that it repeats; peak_heap_mb is
# the whole process's peak heap), and both sides' medians of every
# end-to-end metric. A gain is claimed when NEW wins at least nine tenths
# of the pairs and the medians differ by more than BASE's interquartile
# range.
#
# Exits 1 when a run fails, when either side's detail line reports a
# build profile other than "release", or when the two runs of a pair
# differ in their digest, modelled_s or a wire_* metric.
#
# Copy each binary out of _build first: a dev-profile `dune build` or
# `dune runtest` overwrites _build/default/perfbench/perf.exe. The runs
# start from the repository root, where perf.exe reads
# perfbench/baseline.json.
set -u
if [ $# -ne 5 ]; then
  echo "usage: $0 BASE_EXE NEW_EXE WORKLOAD SEED N" >&2
  exit 2
fi
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
base=$(abs "$1") new=$(abs "$2") workload=$3 seed=$4 n=$5
seconds=15
cd "$(dirname "$0")/.." || exit 1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # side pair
  if [ "$1" = base ]; then bin=$base; else bin=$new; fi
  if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace 0 < /dev/null > "$tmp/$1.$2"; then
    echo "perf_pairs: pair $2: $1 run failed ($bin)" >&2
    exit 1
  fi
}

i=1
while [ "$i" -le "$n" ]; do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run new "$i"
  else run new "$i"; run base "$i"; fi
  i=$((i + 1))
done

python3 - "$tmp" "$n" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

tmp, n, workload, seed, seconds = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
sides = ("base", "new")
# A copy of `deterministic` in perfbench/perf.ml, the list's source of
# truth: a metric added there is not checked here until it is added here.
exact = ("modelled_s", "wire_bytes_per_item", "wire_msgs_per_item")
bad = []

def load(side, i):
    lines = [l for l in open(f"{tmp}/{side}.{i}") if l.strip()]
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if detail.get("profile") != "release":
        bad.append(f"pair {i}: {side} profile is {detail.get('profile')!r}, not 'release'")
    if not result["correct"] or result["failed"]:
        bad.append(f"pair {i}: {side} run not correct ({result['failed']} failed)")
    return detail, metrics

runs = {s: [] for s in sides}
for i in range(1, n + 1):
    (db, mb), (dn, mn) = load("base", i), load("new", i)
    runs["base"].append(mb)
    runs["new"].append(mn)
    if db.get("digest") != dn.get("digest"):
        bad.append(f"pair {i}: digest {db.get('digest')} vs {dn.get('digest')}")
    for k in exact:
        if mb.get(k) != mn.get(k):
            bad.append(f"pair {i}: {k} {mb.get(k)} vs {mn.get(k)}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

host = {s: [m["host_cpu_s"] for m in runs[s]] for s in sides}
wins = {"base": 0, "new": 0}
for b, c in zip(host["base"], host["new"]):
    if c < b: wins["new"] += 1
    elif b < c: wins["base"] += 1
print(f"{workload} seed {seed}: {n} pairs of {seconds} s, host_cpu_s (lower wins)")
stats = {}
for s in sides:
    q1, med, q3 = quartiles(host[s])
    stats[s] = (q1, med, q3)
    ips = statistics.median(m["items_per_s"] for m in runs[s])
    print(f"{s:4} host_cpu_s " + " ".join(f"{x:.4f}" for x in host[s]))
    print(f"{s:4} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  iqr {q3 - q1:.4f}"
          f"  wins {wins[s]}/{n}  items_per_s {ips:.1f}")
    for k in ("alloc_words_per_item", "peak_heap_mb"):
        xs = [m[k] for m in runs[s]]
        print(f"{s:4} {k} median {statistics.median(xs):.2f}"
              f"  min {min(xs):.2f}  max {max(xs):.2f}")
ratios = [c / b for b, c in zip(host["base"], host["new"])]
print("new/base host_cpu_s per pair " + " ".join(f"{r:.3f}" for r in ratios))
print(f"new/base host_cpu_s median ratio {statistics.median(ratios):.3f}")
(bq1, bmed, bq3), (_, nmed, _) = stats["base"], stats["new"]
change = (nmed - bmed) / bmed * 100
gain = wins["new"] * 10 >= 9 * n and bmed - nmed > bq3 - bq1
print(f"change {change:+.1f}% in the median; gain "
      + ("holds" if gain else "not shown")
      + f" (new wins {wins['new']}/{n}, median gap {bmed - nmed:.4f} s"
      f" against base iqr {bq3 - bq1:.4f} s)")
print(f"{'metric':24} {'base median':>14} {'new median':>14} {'change':>8}")
for k in runs["base"][0]:
    b = statistics.median(m[k] for m in runs["base"])
    c = statistics.median(m[k] for m in runs["new"])
    rel = f"{(c - b) / b * 100:+.1f}%" if b else "—"
    print(f"{k:24} {b:14.6g} {c:14.6g} {rel:>8}")
for b in bad:
    print("perf_pairs: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
