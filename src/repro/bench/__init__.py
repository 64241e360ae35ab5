"""Experiment harness (S11) reproducing every table and figure of the
paper's evaluation; see DESIGN.md §3 for the experiment index."""

from .figures import (
    fig2_reliability,
    fig3_diversity,
    fig4_tradeoff,
    fig5_layout,
    fig6a_weights,
    fig6b_runtime,
)
from .harness import (
    BENCH_SETTINGS,
    EVAL_BENCHMARKS,
    BenchSetting,
    base_framework_config,
    bench_seeds,
    format_table,
    load_dataset,
    run_method,
    run_method_averaged,
    run_method_instrumented,
    write_report,
)
from .tables import TABLE2_METHODS, TABLE3_VARIANTS, table1, table2, table3

__all__ = [
    "BenchSetting",
    "BENCH_SETTINGS",
    "EVAL_BENCHMARKS",
    "load_dataset",
    "base_framework_config",
    "bench_seeds",
    "run_method",
    "run_method_instrumented",
    "run_method_averaged",
    "format_table",
    "write_report",
    "table1",
    "table2",
    "table3",
    "TABLE2_METHODS",
    "TABLE3_VARIANTS",
    "fig2_reliability",
    "fig3_diversity",
    "fig4_tradeoff",
    "fig5_layout",
    "fig6a_weights",
    "fig6b_runtime",
]
