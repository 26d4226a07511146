.PHONY: all build test test-quick bench-json replay-smoke serve-smoke \
	trace-smoke health-smoke bench-compare stress perfbench clean

all: build

build:
	dune build

# Full tier-1 suite (unit + property + integration + CLI).
test:
	dune runtest

# Fast subset (the @runtest-quick alias): skips dataset-generation,
# CLI-subprocess and integration suites. Use for tight edit-test loops.
test-quick:
	dune build @runtest-quick

# The bench harness's gates: the exact work-count gate against
# BENCH_T10I4.json, the pool-vs-serial digest stress, the serve ->
# capture -> replay loopback round trip, the request-tracing smoke and
# the live-health smoke.
bench-json:
	dune build @bench-compare @stress @serve-smoke @trace-smoke @health-smoke

# Capture -> replay round trip: record a 200-query canned workload and
# replay it (uncached and cached) expecting zero digest mismatches.
replay-smoke:
	dune build @replay-smoke

# Serve -> capture -> replay over a real loopback socket: an in-process
# olar-serve daemon records a canned workload which the CLI then
# replays against the saved pre-serving lattice; zero mismatches.
serve-smoke:
	dune build @serve-smoke

# Request-tracing smoke: serve a canned workload with tracing sampled
# 1-in-2 and validate the emitted spans file (roots, phase children,
# domain tags, child-first order) plus the /statusz phase accounting.
trace-smoke:
	dune build @trace-smoke

# Live-health smoke: healthy daemon grades ok with live windows and GC
# attribution; a flooded tiny-queue daemon sheds and /healthz agrees
# exactly with the pure Health engine over the /statusz window.
health-smoke:
	dune build @health-smoke

# Work-count gate on its own: rerun the counts experiment (vertices,
# heap pops, cache outcomes and minor words per query on the D10K
# lattice) and require every count to equal BENCH_T10I4.json exactly.
bench-compare:
	dune build @bench-compare

# Pool-vs-serial stress: the same deterministic workload executed
# serially and through an 8-domain pool (x3), requiring bitwise-
# identical FNV digests at cache budgets 0 and 8 MiB.
stress:
	dune build @stress

# The perf gate: run the three perfbench workloads traced at seed 1 and
# require each deterministic 1-domain ladder count (set-up work, kernel
# vertices, heap pops and minor words per request, session cache
# served/refine fractions and evictions; 14 per workload) to equal
# BENCH_ladder.json exactly. A drift fails, naming the workload, the
# metric and both values. A change that legitimately moves a count
# re-records the baseline (cp _perfbench/ladder.json BENCH_ladder.json)
# and explains the move in CHANGES.md. About a minute. run.py invokes
# dune itself, hence a make target rather than a dune alias.
LADDER_WORKLOADS = analyst scan ingest

perfbench:
	dune build ./bench/ladder_json.exe ./bench/compare_json.exe
	mkdir -p _perfbench
	for w in $(LADDER_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 \
			--trace 1 > _perfbench/$$w.out || exit 1; \
	done
	./_build/default/bench/ladder_json.exe _perfbench/ladder.json \
		$(foreach w,$(LADDER_WORKLOADS),$(w)=_perfbench/$(w).out)
	./_build/default/bench/compare_json.exe BENCH_ladder.json \
		_perfbench/ladder.json

clean:
	dune clean
