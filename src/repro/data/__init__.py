"""Benchmark substrate (S4): synthetic layout generation, dataset
containers, the metered labeling oracle, and ICCAD'12/'16-style
benchmark builders."""

from .benchmarks import BENCHMARKS, BenchmarkSpec, benchmark_names, build_benchmark
from .dataset import ClipDataset, DatasetLabeler
from .synth import DUV_RULES, EUV_RULES, TechRules, generate_layout

__all__ = [
    "TechRules",
    "DUV_RULES",
    "EUV_RULES",
    "generate_layout",
    "ClipDataset",
    "DatasetLabeler",
    "BenchmarkSpec",
    "BENCHMARKS",
    "benchmark_names",
    "build_benchmark",
]
