PYTHONPATH := src
export PYTHONPATH

.PHONY: test test-strict test-threads test-serve test-litho lint reprolint mypy bench check

test:
	python -m pytest -x -q

test-strict:
	REPRO_CHECK=strict python -m pytest -x -q

test-threads:
	REPRO_CHECK=strict python -m pytest \
		tests/analysis/test_concurrency.py \
		tests/analysis/test_interleave.py \
		tests/dataplane/test_cache_threads.py \
		tests/dataplane/test_stream.py \
		tests/dataplane/test_stream_threads.py \
		tests/litho/test_faults.py \
		tests/nn/test_arena_threads.py \
		tests/nn/test_pool.py \
		tests/nn/test_training_reference.py::test_adam_matches_out_of_place_update \
		-x -q
	REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_concurrency.py -x -q

test-serve:
	REPRO_CHECK=strict python -m pytest \
		tests/serve \
		tests/engine/test_session_threads.py \
		tests/cli/test_validation.py \
		-x -q
	REPRO_BENCH_QUICK=1 python -m pytest benchmarks/bench_transport.py -x -q

test-litho:
	REPRO_CHECK=strict python -m pytest \
		tests/litho/test_simulator_reference.py \
		tests/litho/test_defects.py \
		tests/layout \
		tests/core/test_golden_alg2.py \
		-x -q

reprolint:
	python -m repro.analysis.lint src tests

lint: reprolint
	ruff check src tests

mypy:
	python -m mypy src/repro/analysis src/repro/dataplane

bench:
	python -m pytest benchmarks -q

check:
	sh check.sh
