# Convenience targets; the project itself is plain dune.

BENCH := bin/dpa_bench.exe

.PHONY: all build test fmt fmt-check smoke obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke optimality-smoke scale-smoke usage-smoke identity identity-bless deadcode hostprof bench-obs-overhead clean

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

CHECK := dune exec bin/artifact_check.exe --

# End-to-end observability smoke test: run a small experiment with the
# trace/metrics exporters on, make sure the trace appears and validate the
# metrics dump's per-phase profile. The test suite validates the JSON
# itself (test/test_obs.ml).
smoke: build obs-smoke chaos-smoke adaptive-smoke critpath-smoke integrity-smoke optimality-smoke scale-smoke usage-smoke
	dune exec $(BENCH) -- f1 --scale small \
	  --trace /tmp/dpa_trace.json --metrics /tmp/dpa_metrics.json --profile
	@test -s /tmp/dpa_trace.json || { echo "smoke: no trace written"; exit 1; }
	$(CHECK) --metrics /tmp/dpa_metrics.json

# Streaming-observability smoke test: a small BH workload with --events
# streaming through a deliberately tiny ring (512 entries). The streamed
# file must hold far more events than the ring with none reported dropped
# (the writer captures each event at emission; the ring is only the
# in-memory flight recorder), every JSONL line must parse and stay
# time-ordered, and the metrics profile must be internally consistent and
# add up to the stream's phase and strip spans — all validated by
# bin/artifact_check.
obs-smoke: build
	dune exec $(BENCH) -- f1 --scale small --bodies 512 --ring 512 \
	  --events /tmp/dpa_events.jsonl --metrics /tmp/dpa_obs_metrics.json
	$(CHECK) --min-lines 513 \
	  --events /tmp/dpa_events.jsonl --metrics /tmp/dpa_obs_metrics.json

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
# bucket (retransmit and refetch included) can appear. artifact_check then
# validates the full chain: each causal parent arg in the event stream
# resolves to an emitted span_id no later than its child, the report's
# segments sum exactly to the path length, 0 <= max span <= path <= phase
# wall, and actual bytes >= the communication lower bound in both the
# report and the profile's optimality rows. A deliberately tampered copy
# of the report must then fail validation with exit 1. No
# --trace-cats/--spans-only here: filters may drop the instants that
# define flight ids (see docs/OBSERVABILITY.md).
critpath-smoke: build
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2 --critical-path /tmp/dpa_critpath.json \
	  --events /tmp/dpa_cp_events.jsonl --metrics /tmp/dpa_cp_metrics.json
	$(CHECK) --min-lines 1000 --critpath /tmp/dpa_critpath.json \
	  --events /tmp/dpa_cp_events.jsonl --metrics /tmp/dpa_cp_metrics.json
	sed 's/"path_ns":/"path_ns":1/' /tmp/dpa_critpath.json \
	  > /tmp/dpa_critpath_tampered.json
	$(CHECK) --critpath /tmp/dpa_critpath_tampered.json; test $$? -eq 1

# End-to-end integrity smoke test: the a14 matrix at reduced scale. Then
# a BH run under the full fault cocktail streams its events so
# artifact_check can validate the per-phase integrity rows (present
# wherever the stream's phase spans carry corrupt_dropped, per-node rows
# summing to the totals, no negative counters) alongside the usual stream
# invariants.
integrity-smoke: build
	dune exec $(BENCH) -- a14 --scale small --bodies 512
	dune exec $(BENCH) -- t2 --scale small --bodies 512 \
	  --faults heavy,crashes=2,corrupt=0.05,torn-wal=1 \
	  --events /tmp/dpa_integ_events.jsonl --metrics /tmp/dpa_integ_metrics.json
	$(CHECK) --min-lines 1000 \
	  --events /tmp/dpa_integ_events.jsonl --metrics /tmp/dpa_integ_metrics.json

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
# threshold, or a16 exits 1), and artifact_check must accept the JSON
# artifact: field presence, reduction-factor arithmetic, non-negative
# counters. The committed BENCH_scale.json is the same artifact produced
# by `a16 --scale full`. The hot path's per-read allocation bound
# (docs/PERFORMANCE.md §4) is a unit test in `dune runtest`.
scale-smoke: build
	dune exec $(BENCH) -- a16 --scale small --json /tmp/dpa_scale.json
	$(CHECK) --scale /tmp/dpa_scale.json

# Bad numeric overrides are usage errors that name the flag (cmdliner's
# exit 124), not uncaught exceptions from inside the run (exit 125). An
# unwritable --json path fails (exit 1) before the run prints anything,
# naming the path.
usage-smoke: build
	@for args in "t2 --bodies 0" "t3 --particles 0" "t2 --procs 0" \
	  "t2 --procs 4,-1"; do \
	  flag=$${args#* }; flag=$${flag%% *}; \
	  dune exec $(BENCH) -- $$args > /dev/null 2> /tmp/dpa_usage.err; \
	  code=$$?; \
	  if [ $$code -eq 0 ] || [ $$code -eq 125 ] \
	    || ! grep -q -- "$$flag" /tmp/dpa_usage.err; then \
	    echo "usage-smoke: '$$args' exited $$code:"; cat /tmp/dpa_usage.err; \
	    exit 1; \
	  fi; \
	done; echo "usage-smoke: bad counts rejected as usage errors"
	@dune exec $(BENCH) -- t1 --scale small --json /nonexistent/dpa_t1.json \
	  > /tmp/dpa_usage.out 2> /tmp/dpa_usage.err; \
	code=$$?; \
	if [ $$code -ne 1 ] || [ -s /tmp/dpa_usage.out ] \
	  || ! grep -q /nonexistent/dpa_t1.json /tmp/dpa_usage.err; then \
	  echo "usage-smoke: t1 --json to an unwritable path exited $$code:"; \
	  cat /tmp/dpa_usage.err; exit 1; \
	fi; echo "usage-smoke: unwritable --json path rejected before the run"

# Byte-identity check of every command in scripts/identity.cmds: their
# stdout (plus any --json/--events/... artifact) must hash to the lines of
# scripts/identity.golden, or, with BASE set, be cmp-identical between BASE
# (usually the parent commit's dpa_bench) and this tree's. Exits 1 naming
# the commands that differ. `dune runtest` checks the "# runtest" slice
# against the golden file; identity-bless rewrites it after a deliberate
# output change.
#   make identity [BASE=/path/to/parent/_build/default/bin/dpa_bench.exe]
identity: build
	scripts/identity.sh $(if $(BASE),$(BASE),--check) _build/default/$(BENCH)

identity-bless: build
	scripts/identity.sh --bless _build/default/$(BENCH)

# The reference index (tools/deadcode): every export and record field of
# lib/ that no code in lib/, bin/ or examples/ reads, with who does read
# it; exits 1 on one without a line in scripts/exports.allow. `dune
# runtest` runs the same check.
deadcode:
	dune build @check ./tools/deadcode/deadcode.exe
	_build/default/tools/deadcode/deadcode.exe -allow scripts/exports.allow _build/default

# In-process sampling profile of a DPA phase (tools/hostprof): the
# Barnes-Hut force phase against the sequential traversal (KERNEL=bh), or
# the interpreted EM3D gather of perfbench's chaos workload against the
# sequential update (KERNEL=em3d). Prints the median and range of the
# phase's CPU time against the sequential side's over five alternating
# pairs, costs per unit of work, and each function's inclusive share of
# the SIGPROF samples.
# Release profile, as perfbench runs, since the dev profile inlines
# nothing across modules.
#   make hostprof [NODES=16] [KERNEL=bh|em3d]
NODES ?= 16
KERNEL ?= bh
hostprof:
	dune build --profile release ./tools/hostprof/hostprof.exe
	_build/default/tools/hostprof/hostprof.exe --nodes $(NODES) --kernel $(KERNEL)

# Observability-overhead benchmark: wall-clock time of t2 and f1 with
# observability off, with event streaming only, and with causal tracing +
# critical-path analysis on top. Writes BENCH_obs_overhead.json (the
# committed copy documents the overhead on the reference machine).
bench-obs-overhead: build
	dune exec bin/bench_obs_overhead.exe -- BENCH_obs_overhead.json

clean:
	dune clean
