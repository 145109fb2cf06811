# Entry points shared by CI and local development.  Everything runs with the
# same PYTHONPATH wiring so results are comparable across environments.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

BENCH_JSON := BENCH_perf.json
## perf-smoke's own report (gitignored): reduced-scale sections never
## reach the committed $(BENCH_JSON)
SMOKE_JSON ?= .perf-smoke.json

.PHONY: test stress recovery-stress shard-stress bench perf perf-smoke bench-selftest e2e docs lint

## tier-1 test suite (must stay green; see ROADMAP.md)
test:
	$(PYTHON) -m pytest -x -q

## concurrency stress tests only (reader/mutator thread pools; also in `test`)
stress:
	REPRO_LOCK_ORDER_CHECK=1 $(PYTHON) -m pytest -m stress -v

## crash-recovery fault matrix + seeded randomized kill-point sweep
recovery-stress:
	$(PYTHON) -m pytest tests/test_recovery_faults.py -v

## cross-process sharded-serving stress: randomized worker kills + restarts
## (runtime lock-order validator on, as for `make stress`)
shard-stress:
	REPRO_LOCK_ORDER_CHECK=1 $(PYTHON) -m pytest -m shard_stress -v

## paper-reproduction benchmarks (tables/figures, pytest-based bench_*.py)
bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

## perf benchmark harnesses: all merge into $(BENCH_JSON); fails if it cannot be written
perf:
	$(PYTHON) benchmarks/bench_perf_pipeline.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_incremental_index.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_incremental_assessment.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_eager_refresh.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_concurrent_serving.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_persistence.py --output $(BENCH_JSON)
	$(PYTHON) benchmarks/bench_sharded_serving.py --output $(BENCH_JSON)
	@test -s $(BENCH_JSON) || { echo "FATAL: $(BENCH_JSON) was not written" >&2; exit 1; }

## reduced-scale perf smoke for CI: proves every harness produces its section
## in a fresh $(SMOKE_JSON); the committed $(BENCH_JSON) stays untouched
perf-smoke:
	rm -f $(SMOKE_JSON)
	$(PYTHON) benchmarks/bench_perf_pipeline.py --output $(SMOKE_JSON) --rank-repetitions 2 --search-rounds 2 --assessment-sources 1500
	$(PYTHON) benchmarks/bench_incremental_index.py --output $(SMOKE_JSON) --sources 200 --events 4
	$(PYTHON) benchmarks/bench_incremental_assessment.py --output $(SMOKE_JSON) --sources 200 --events 4
	$(PYTHON) benchmarks/bench_eager_refresh.py --output $(SMOKE_JSON) --sources 200 --events 4
	$(PYTHON) benchmarks/bench_concurrent_serving.py --output $(SMOKE_JSON) --sources 200 --events 12
	$(PYTHON) benchmarks/bench_persistence.py --output $(SMOKE_JSON) --sources 120 --discussion-budget 12 --events 4
	$(PYTHON) benchmarks/bench_sharded_serving.py --output $(SMOKE_JSON) --smoke
	$(PYTHON) scripts/check_bench_keys.py $(SMOKE_JSON)

## end-to-end benchmark self-test: every workload at smoke scale through
## perfbench/, so a src/ change that breaks a name it imports fails here
bench-selftest:
	$(PYTHON) perfbench/selftest.py

## end-to-end benchmark (BENCHMARK.json): each gated workload once, seed 1,
## for the 15 s run length BENCHMARK.json declares; one JSON result line each
e2e:
	$(PYTHON) perfbench/run.py --workload ingest --seed 1 --seconds 15
	$(PYTHON) perfbench/run.py --workload churn --seed 1 --seconds 15

## invariant lint suite: lock-order, float-exactness, durability and bus
## hygiene checkers over src/ (see docs/INVARIANTS.md); fails on any
## non-baselined finding or tracked bytecode
lint:
	$(PYTHON) scripts/run_lint.py

## documentation checks: README/docs link integrity + runnable examples
docs:
	$(PYTHON) scripts/check_docs.py README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md docs/PERSISTENCE.md docs/INVARIANTS.md
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/source_ranking.py
	$(PYTHON) examples/influencer_analysis.py
	$(PYTHON) examples/tourism_dashboard.py
	$(PYTHON) examples/checkpoint_recover.py
