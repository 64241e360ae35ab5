"""Command-line interface.

Three entry points mirror how a downstream user consumes the library:

* ``repro-detect``   — run PSHD on a GLP layout file end to end.
* ``repro-serve``    — detection daemon (demo clients, or a
  framed socket transport with ``--listen``).
* ``repro-query``    — remote client of a ``--listen`` daemon.
* ``repro-benchmark``— build / inspect the ICCAD-style benchmark suites.
* ``repro-report``   — regenerate the paper's tables and figures.

All are thin wrappers over the public API; see :mod:`repro.cli.main`.
"""

from .main import (
    benchmark_main,
    convert_main,
    detect_main,
    main,
    query_main,
    report_main,
    serve_main,
)

__all__ = [
    "main",
    "detect_main",
    "benchmark_main",
    "report_main",
    "convert_main",
    "serve_main",
    "query_main",
]
