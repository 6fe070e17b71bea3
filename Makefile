# Convenience targets; the project itself is plain dune.

BENCH := bin/dpa_bench.exe

.PHONY: all build test fmt fmt-check smoke obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke optimality-smoke scale-smoke bench-obs-overhead clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not pinned in this environment, so formatting is enabled
# for dune files only (see dune-project); these targets keep those clean.
fmt:
	dune fmt

# Also gates the API docs: every .mli must render through odoc without
# warnings (broken references, ambiguous doc comments).
fmt-check:
	dune build @fmt
	dune build @doc 2>&1 | tee /tmp/dpa_doc.log
	@! grep -qi warning /tmp/dpa_doc.log && echo "fmt-check: docs build warning-free"

# End-to-end observability smoke test: run a small experiment with the
# trace/metrics exporters on and make sure the artifacts appear and are
# non-trivial. The test suite validates the JSON itself (test/test_obs.ml).
smoke: build obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke optimality-smoke scale-smoke
	dune exec $(BENCH) -- f1 --scale small \
	  --trace /tmp/dpa_trace.json --metrics /tmp/dpa_metrics.json --profile
	@test -s /tmp/dpa_trace.json && test -s /tmp/dpa_metrics.json \
	  && echo "smoke: trace + metrics written"

# Streaming-observability smoke test: a small BH workload with --events
# streaming through a deliberately tiny ring (512 entries). The streamed
# file must hold far more events than the ring with none reported dropped
# (the writer captures each event at emission; the ring is only the
# in-memory flight recorder), every JSONL line must parse and stay
# time-ordered, and the per-node skew table must sum back to the global
# per-phase row — all validated by bin/obs_check.
obs-smoke: build
	dune exec $(BENCH) -- f1 --scale small --bodies 512 --ring 512 \
	  --events /tmp/dpa_events.jsonl --profile | tee /tmp/dpa_obs.txt
	@grep -q "wrote event log" /tmp/dpa_obs.txt \
	  && ! grep -q "overwritten in the ring" /tmp/dpa_obs.txt \
	  || { echo "obs-smoke: events dropped or log missing"; exit 1; }
	dune exec bin/obs_check.exe -- --min-lines 513 \
	  /tmp/dpa_events.jsonl /tmp/dpa_obs.txt
	@echo "obs-smoke: streamed events exceed the ring with zero drops; skew table consistent"

# The fault matrices (a11-a15) exit 1 when any cell diverges from its
# fault-free reference or a declared witness is zero (no crash-restarts,
# corruptions, truncated WAL records, route-crash re-issues, or no strict
# ratio improvement), naming the failing cell or witness on stderr; a16
# exits 1 when its allocation gate fails. The smoke targets below rely on
# those exit statuses instead of grepping the printed tables.

# Chaos smoke test: the a11 fault sweep and the a13 crash matrix at
# reduced scale.
chaos-smoke: build
	dune exec $(BENCH) -- a11 --scale small --bodies 512
	dune exec $(BENCH) -- a13 --scale small --bodies 512

# Adaptive-control smoke test: the a12 sweep at reduced scale — the
# static and auto strip rows of a12a, and both RTO rows of a12b.
adaptive-smoke: build
	dune exec $(BENCH) -- a12 --scale small --bodies 512

# Causal-tracing smoke test: the BH sweep under the heavy fault preset
# plus two crash windows, with --critical-path on, so every decomposition
# bucket (retransmit and refetch included) can appear. obs_check then
# validates the full chain: each causal parent arg in the event stream
# resolves to an emitted span_id no later than its child, the report's
# segments sum exactly to the path length, 0 <= max span <= path <= phase
# wall, and actual bytes >= the communication lower bound in both the
# report and the profile's optimality table. No --trace-cats/--spans-only
# here: filters may drop the instants that define flight ids (see
# docs/OBSERVABILITY.md).
critpath-smoke: build
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2 --critical-path /tmp/dpa_critpath.json \
	  --events /tmp/dpa_cp_events.jsonl --profile | tee /tmp/dpa_cp.txt
	@grep -q "wrote critical-path report" /tmp/dpa_cp.txt \
	  || { echo "critpath-smoke: report missing"; exit 1; }
	dune exec bin/obs_check.exe -- --min-lines 1000 \
	  --critpath /tmp/dpa_critpath.json \
	  /tmp/dpa_cp_events.jsonl /tmp/dpa_cp.txt
	@echo "critpath-smoke: causal edges resolve; path decomposition exact; comm ratio >= 1"

# End-to-end integrity smoke test: the a14 matrix at reduced scale. Then
# a BH run under the full fault cocktail streams its events so obs_check
# can validate the per-phase integrity tables (per-node rows summing to
# the "=" line, no negative counters) alongside the usual stream
# invariants.
integrity-smoke: build
	dune exec $(BENCH) -- a14 --scale small --bodies 512
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2,corrupt=0.05,torn-wal=1 \
	  --events /tmp/dpa_integ_events.jsonl --profile | tee /tmp/dpa_integ.txt
	dune exec bin/obs_check.exe -- --min-lines 1000 \
	  /tmp/dpa_integ_events.jsonl /tmp/dpa_integ.txt
	@grep -q "Per-phase integrity" /tmp/dpa_integ.txt \
	  && echo "integrity-smoke: integrity tables consistent across nodes"

# Communication-optimality smoke test: the a15 matrix at reduced scale.
# Tree-routed aggregation and Morton repartitioning must both strictly
# lower their workload's measured-volume / optimality-bound ratio, the
# routed crash cells must execute origin-custody re-issues, and every
# cell must stay bit-identical to the flat/static reference.
optimality-smoke: build
	dune exec $(BENCH) -- a15 --scale small --bodies 512

# Flat-heap scale smoke test: the a16 sweep at reduced scale. The
# allocation gate must pass (every boxed-baseline config re-run on the
# flat heap clears the committed words-per-body-step reduction
# threshold, or a16 exits 1), and bin/scale_check must accept the JSON
# artifact — field presence, reduction-factor arithmetic, non-negative
# counters — and then re-measure the hot path directly, failing if a
# phase of local reads, or one of remote reads that merge onto in-flight
# fetches, allocates beyond the per-poll-quantum simulator residue
# (docs/PERFORMANCE.md §4). The committed BENCH_scale.json is the same
# artifact produced by `a16 --scale full`.
scale-smoke: build
	dune exec $(BENCH) -- a16 --scale small --json /tmp/dpa_scale.json
	dune exec bin/scale_check.exe -- /tmp/dpa_scale.json
	@echo "scale-smoke: artifact valid; strip hot path allocation-free"

# Observability-overhead benchmark: wall-clock time of t2 and f1 with
# observability off, with event streaming only, and with causal tracing +
# critical-path analysis on top. Writes BENCH_obs_overhead.json (the
# committed copy documents the overhead on the reference machine).
bench-obs-overhead: build
	dune exec bin/bench_obs_overhead.exe -- BENCH_obs_overhead.json

clean:
	dune clean
