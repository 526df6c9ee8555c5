# Development targets. `make test` is the tier-1 gate.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test coverage bench bench-platform bench-search bench-concurrent \
	bench-batched bench-serve bench-topology bench-dynamic bench-robust \
	bench-compare serve-smoke profile docs gallery install

test:            ## unit + integration tests and benchmark assertions
	$(PYTHON) -m pytest -x -q

coverage:        ## tests with a coverage report and an 85% floor on src/repro
	$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term-missing \
		--cov-report=xml:benchmarks/results/coverage.xml --cov-fail-under=85

bench:           ## regenerate the paper tables under benchmarks/results/
	$(PYTHON) -m pytest benchmarks -q

bench-platform:  ## heterogeneous-platform scaling table (platform_scaling.txt)
	$(PYTHON) -m pytest benchmarks/test_bench_platform.py -q

bench-search:    ## branch-and-bound / incremental-delta perf (BENCH_search.json)
	$(PYTHON) -m pytest benchmarks/test_bench_search.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

bench-concurrent: ## shared-server multi-app scaling (BENCH_concurrent.json)
	$(PYTHON) -m pytest benchmarks/test_bench_concurrent.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

bench-batched:   ## batched-kernel throughput + anytime curve (BENCH_batched.json)
	$(PYTHON) -m pytest benchmarks/test_bench_batched.py -q

bench-serve:     ## planner-daemon load test: rps + p50/p99 per mix (BENCH_serve.json)
	$(PYTHON) -m pytest benchmarks/test_bench_serve.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

bench-topology:  ## hierarchical vs flat placement on tree/torus (BENCH_topology.json)
	$(PYTHON) -m pytest benchmarks/test_bench_topology.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

bench-dynamic:   ## warm re-planning vs cold re-solve on a flash crowd (BENCH_dynamic.json)
	$(PYTHON) -m pytest benchmarks/test_bench_dynamic.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

bench-robust:    ## robust vs nominal degradation sweep (BENCH_robust.json)
	$(PYTHON) -m pytest benchmarks/test_bench_robust.py -q
	$(PYTHON) benchmarks/compare_bench.py --stamp

serve-smoke:     ## start the real daemon subprocess; solve/stats/shutdown round trip
	$(PYTHON) -m pytest tests/test_serve.py -q -m smoke

bench-compare:   ## perf-regression guard: snapshot committed BENCH_*.json, regenerate, diff
	$(PYTHON) benchmarks/compare_bench.py --snapshot
	$(PYTHON) -m pytest benchmarks/test_bench_search.py benchmarks/test_bench_concurrent.py \
		benchmarks/test_bench_dynamic.py benchmarks/test_bench_serve.py \
		benchmarks/test_bench_robust.py benchmarks/test_bench_topology.py -q
	$(PYTHON) benchmarks/compare_bench.py

profile:         ## cProfile a representative solve (evidence for perf PRs)
	$(PYTHON) -m repro profile random:n=6,seed=1 --platform het4 --method branch-and-bound

docs:            ## execute the documented examples (doctests + quickstarts)
	$(PYTHON) -m pytest tests/test_docs.py -q
	$(PYTHON) examples/quickstart.py > /dev/null
	$(PYTHON) -m repro gallery > /dev/null
	@echo "docs examples OK"

gallery:         ## batch-solve the paper's named instances
	$(PYTHON) -m repro gallery

install:         ## editable install with the `repro` console script
	$(PYTHON) -m pip install -e .
