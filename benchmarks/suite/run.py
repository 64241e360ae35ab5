#!/usr/bin/env python3
"""Run the benchmark suite that the repo-root ``BENCHMARK.json`` defines.

One workload in this process — what ``BENCHMARK.json``'s command runs::

    python3 benchmarks/suite/run.py --workload al_cnn --seed 0 --seconds 16 --trace 0

Every workload of ``BENCHMARK.json`` plus ``rescan_chip``, each
untraced and then traced in a fresh process of its own, collected into
``<out>/results.json`` for ``compare.py``::

    python3 benchmarks/suite/run.py [--seed S] [--seconds T] [--out DIR]

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones (see ``runner.py``).  Human-readable lines come first:
the environment, every metric with its unit and sample count, the
workload's details and the correctness verdict.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes
``<out>/<workload>_trace<0|1>.json``, and a traced run writes every span
to ``<out>/trace_<workload>.json``.  The exit code is 1 when a
correctness check fails.  ``--out`` defaults to ``.bench_out`` at the
repository root; temporary files live under it and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: suite workloads left out of BENCHMARK.json: their latency is set by
#: small-file write latency, which swings too much on a shared disk to
#: hold a regression bound (see README.md)
UNBOUNDED_WORKLOADS = ("rescan_chip",)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the suite's own test")
    return parser.parse_args(argv)


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, kind = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def _environment(tmp: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "tmp_fs": _fs_type(tmp),
    }


def _import_program() -> None:
    """Set the benchmark's environment, then import ``repro`` from this
    checkout's ``src`` and nowhere else."""
    # checks add overhead the benchmark must not measure; the variable is
    # read when repro is first imported
    os.environ.pop("REPRO_CHECK", None)
    # read when numpy loads OpenBLAS.  On a shared 2-core host a second
    # BLAS thread spins against the neighbours' load: it buys no speed
    # and makes a run's time swing by a third (see README.md)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"repro imported from {location}, not from {SRC}")


def run_one(args, spec: dict) -> int:
    _import_program()
    from runner import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=args.out))
    os.environ["REPRO_CACHE_DIR"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        environment = _environment(tmp)
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
        record, tracer = run_workload(workload, seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    group = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in group:
        name = entry["name"]
        if name not in record["metrics"] and not args.trace:
            record["failures"].append(f"metric {name} was not measured")
        # a layer the workload never enters reports 0
        value = record["metrics"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    record["correct"] = not record["failures"]
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=seconds, smoke=args.smoke, environment=environment,
        metrics=metrics, extra_metrics={
            name: value for name, value in record["metrics"].items()
            if name not in metrics
        },
    )
    stem = f"{args.workload}_trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(args.out / f"trace_{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed})

    print("# environment: " + " ".join(
        f"{key}={value}" for key, value in environment.items()))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['setup_s'])} set-up(s), {record['ops']} operation(s),"
          f" {record['failed']}/{record['attempted']} failed")
    for name, metric in metrics.items():
        samples = record["samples"].get(name, 0)
        print(f"  {name:32s} {metric['value']:14.6f} {metric['unit']:8s} "
              f"(n={samples})")
    for label, values in (("details", record["details"]),
                          ("more metrics", record["extra_metrics"])):
        if values:
            print(f"# {label}: " + " ".join(
                f"{key}={value:.6g}" for key, value in values.items()))
    for failure in record["failures"]:
        print(f"# CHECK FAILED: {failure}")
    print("# correct" if record["correct"] else "# INCORRECT")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload untraced, then traced, in fresh processes."""
    args.out.mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_CHECK"}
    records, status = [], 0
    names = [entry["name"] for entry in spec["workloads"]]
    for name in names + list(UNBOUNDED_WORKLOADS):
        for trace in (0, 1):
            stem = f"{name}_trace{trace}"
            (args.out / f"{stem}.json").unlink(missing_ok=True)
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace), "--out", str(args.out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            status |= subprocess.run(command, env=env).returncode
            record_path = args.out / f"{stem}.json"
            if record_path.exists():
                records.append(json.loads(record_path.read_text()))
    (args.out / "results.json").write_text(json.dumps(records, indent=1))
    print(f"# wrote {args.out / 'results.json'}")
    return 1 if status else 0


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
