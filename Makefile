# Convenience targets for the plan-bouquet reproduction.
#
#   make help         show this target summary
#   make install      editable install into the current environment
#   make test         run the unit/integration/property test suite
#   make lint         ruff check (imports + obvious-bug rules; config in
#                     pyproject.toml) — fails on findings, prints
#                     "lint SKIPPED" if ruff is absent
#   make serve-smoke  compile-cache the canned workload twice; fail unless
#                     the warm pass is all cache hits and >= 5x faster
#   make check        lint + serve-smoke (the gated fast checks)
#   make ci           lint + every smoke gate (incl. both fuzz schemas
#                     and the parallel substrate) + the tier-1 pytest
#                     suite, in one gate
#   make bench-sched  benchmark the contour-crossing schedulers; writes
#                     BENCH_sched.json and fails on any acceptance miss
#   make bench-sweep  race the cohort sweep engine against the reference
#                     per-location driver; writes BENCH_sweep.json and
#                     fails under 5x speedup or above 1e-9 field error
#   make bench-compile race the slab-batched compile kernel against the
#                     scalar optimizer loop; writes BENCH_compile.json and
#                     fails under 4x speedup or on any plan/cost mismatch
#   make bench-drift  race the delta refresh engine against a from-scratch
#                     rebuild under statistics drift; writes BENCH_drift.json
#                     and fails above 20% re-planned locations, under 5x
#                     savings, or on any plan/cost/contour divergence
#   make bench-serve  load-test the async multi-tenant front-end (simulated
#                     + real-asyncio passes); writes BENCH_serve.json and
#                     fails on any silent drop or untyped response
#   make serve-load-smoke  fast simulated-only load gate: >= 2000 concurrent
#                     sessions, every request answered with a typed response
#   make fuzz-smoke   fast MSO fuzzing gate: 25 generated queries through the
#                     full pipeline, zero crashes / bound violations required
#   make fuzz-smoke-tpcds  same fuzzing gate over the TPC-DS snowflake
#                     schema (6 queries; exercises multi-FK fact tables)
#   make bench-par    race the persistent worker substrate against the
#                     per-call pools it replaced on a windowed 1000-query
#                     TPC-DS campaign; writes BENCH_par.json and fails
#                     under 2x speedup, on any result divergence across
#                     worker counts, or on a leaked shm segment
#   make par-smoke    fast substrate gate: small windowed campaign;
#                     bit-identity and zero-leak gates enforced,
#                     speedup reported but not gated
#   make bench-template  benchmark the cross-query template cache: rebind
#                     vs. fresh compile on a templated wlgen workload;
#                     writes BENCH_template.json and fails under 5x speedup,
#                     on incomplete template coverage, or on any bit-level
#                     divergence from a fresh compile
#   make template-smoke  fast template-tier gate: nonzero template hits and
#                     zero equivalence violations on a small workload
#   make bench-workload  full fuzzing campaign: 200 generated queries with
#                     sensitivity-chosen ESS dims; writes BENCH_workload.json
#                     and fails on any crash or MSO above 4(1+lambda)rho
#   make bench        regenerate every paper table/figure
#   make experiments  bench + rebuild EXPERIMENTS.md
#   make examples     run the example scripts end to end
#   make all          test + experiments + examples
#   make clean        remove caches and generated results

PYTHON ?= python

.PHONY: help install test lint serve-smoke check ci bench-sched bench-sweep sweep-smoke bench-compile compile-smoke bench-drift drift-smoke bench-serve serve-load-smoke fuzz-smoke fuzz-smoke-tpcds bench-par par-smoke bench-template template-smoke bench-workload bench experiments examples all clean

help:
	@sed -n 's/^#   //p' Makefile

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "lint SKIPPED (ruff not installed)"; \
	fi

serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve-smoke

check: lint serve-smoke

ci: lint sweep-smoke compile-smoke drift-smoke serve-load-smoke fuzz-smoke fuzz-smoke-tpcds template-smoke par-smoke
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench-sched:
	PYTHONPATH=src $(PYTHON) -m repro.bench.sched --out BENCH_sched.json

bench-sweep:
	PYTHONPATH=src $(PYTHON) -m repro.bench.sweep --out BENCH_sweep.json

# Small-grid sanity pass of the sweep bench (equality gate only; the
# tiny grid cannot amortize batching, so no speedup floor is enforced).
sweep-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.sweep --resolution 5 \
		--stats-sample 600 --sample 25 --min-speedup 0.0

bench-compile:
	PYTHONPATH=src $(PYTHON) -m repro.bench.compile --out BENCH_compile.json

# Small-grid sanity pass of the compile bench (exactness gate only).
compile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.compile --resolution 5 \
		--stats-sample 600 --min-speedup 0.0

bench-drift:
	PYTHONPATH=src $(PYTHON) -m repro.bench.drift --out BENCH_drift.json

# Smaller-grid pass of the drift bench with the same three gates
# (locality, savings, bit-exact equivalence).
drift-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.drift --resolution 10

bench-serve:
	PYTHONPATH=src $(PYTHON) -m repro.bench.serve_load --real-server \
		--out BENCH_serve.json

# Fast simulated-only pass of the serve load harness (zero-silent-drop
# and >= 2000 concurrent session gates; deterministic, sub-second).
serve-load-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.serve_load --smoke

# Fast pass of the workload fuzzer (same zero-crash / zero-violation
# gates as bench-workload, on a 25-query campaign; deterministic).
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.workload --count 25

# The same fuzzing gates over the TPC-DS snowflake schema — multi-FK
# fact tables stress join-tree sampling and template canonicalization.
fuzz-smoke-tpcds:
	PYTHONPATH=src $(PYTHON) -m repro.bench.workload --count 6 \
		--benchmark tpcds

bench-par:
	PYTHONPATH=src $(PYTHON) -m repro.bench.par --out BENCH_par.json

# Fast pass of the parallel-substrate bench (bit-identity across worker
# counts and zero-leak gates; no speedup floor — the
# tiny campaign cannot amortize anything meaningfully).
par-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.par --smoke

bench-template:
	PYTHONPATH=src $(PYTHON) -m repro.bench.template --out BENCH_template.json

# Fast pass of the template bench (coverage + bit-exact equivalence
# gates; the tiny workload's speedup is reported but not enforced).
template-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.template --smoke

bench-workload:
	PYTHONPATH=src $(PYTHON) -m repro.bench.workload --count 200 \
		--workers 4 --out BENCH_workload.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments: bench
	$(PYTHON) benchmarks/assemble_experiments.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/etl_unknown_stats.py
	$(PYTHON) examples/robust_dashboard.py
	$(PYTHON) examples/strategy_faceoff.py
	$(PYTHON) examples/canned_query_service.py
	$(PYTHON) examples/async_service.py
	$(PYTHON) examples/plan_diagram_gallery.py

all: test experiments examples

clean:
	rm -rf .pytest_cache .benchmarks results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
