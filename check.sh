#!/usr/bin/env sh
# Full local quality gate: tests (off + strict contracts), reprolint,
# and — when installed — ruff and mypy.  CI runs the same steps; ruff
# and mypy are skipped gracefully here so the gate works in minimal
# environments (the repo itself depends only on numpy/scipy).
set -eu

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> pytest"
python -m pytest -x -q

echo "==> pytest (REPRO_CHECK=strict)"
REPRO_CHECK=strict python -m pytest -x -q

# no -x here: every smoke reports even when an earlier one fails a gate
echo "==> bench smokes (quick mode)"
REPRO_BENCH_QUICK=1 python -m pytest \
    benchmarks/bench_stream.py \
    benchmarks/bench_engine_inference.py \
    benchmarks/bench_compute_core.py \
    benchmarks/bench_concurrency.py \
    benchmarks/bench_transport.py \
    -q

echo "==> benchmark suite smoke (every workload at --smoke size, correct)"
python -m pytest benchmarks/suite/test_suite.py -x -q

echo "==> all six examples (exit code only)"
python examples/quickstart.py
python examples/calibration_study.py
python examples/custom_strategy.py
python examples/full_chip_flow.py
python examples/detect_and_fix.py
python examples/printability_analysis.py

echo "==> reprolint"
python -m repro.analysis.lint src tests

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    echo "==> ruff"
    ruff check src tests
else
    echo "==> ruff not installed; skipping (CI runs it)"
fi

if python -c "import mypy" >/dev/null 2>&1; then
    echo "==> mypy"
    python -m mypy src/repro/analysis src/repro/dataplane
else
    echo "==> mypy not installed; skipping (CI runs it)"
fi

echo "All checks passed."
