"""CLI entry points.

``repro-detect`` runs the whole PSHD flow on a user-supplied GLP layout:
clip extraction, feature encoding, litho-in-the-loop active sampling,
full-chip scan, and a report of detected hotspot locations.

``repro-benchmark`` builds the ICCAD-style benchmark datasets (warming
the on-disk cache) and prints Table-I statistics.

``repro-report`` regenerates the paper's tables/figures without pytest.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

__all__ = [
    "main",
    "detect_main",
    "benchmark_main",
    "report_main",
    "convert_main",
    "serve_main",
    "query_main",
]


# ----------------------------------------------------------------------
# argument validation (parse-time, so bad values fail with a clear
# argparse error instead of a cryptic crash deep inside the run)
# ----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    # float() parses "nan" and "inf"; NaN also fails `value > 0`
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value}"
        )
    return value


def _grid(text: str) -> int:
    """A raster resolution :class:`FeatureExtractor` accepts (the rule
    lives there alone, so it is checked by constructing one)."""
    value = _positive_int(text)
    from ..features.pipeline import FeatureExtractor

    try:
        FeatureExtractor(grid=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a grid the feature extractor accepts: {exc}"
        ) from None
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 1 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port in [1, 65535], got {value}"
        )
    return value


# ----------------------------------------------------------------------
# layout input of detect, serve and query
# ----------------------------------------------------------------------

def _load_layout(path: str, tech: int | None):
    """Read a GDS (by extension) or GLP layout and apply ``--tech``;
    ``None`` after printing ``error: ...`` when it cannot be read."""
    from ..layout.gds import load_gds
    from ..layout.glp import load_layout

    try:
        if str(path).lower().endswith((".gds", ".gdsii")):
            layout = load_gds(path, tech_nm=tech or 28)
        else:
            layout = load_layout(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if tech is not None:
        layout.tech_nm = tech
    return layout


# ----------------------------------------------------------------------
# repro-detect
# ----------------------------------------------------------------------

def build_detect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Active-learning hotspot detection on a GLP layout.",
    )
    parser.add_argument("layout",
                        help="path to a layout file (.glp text or .gds)")
    parser.add_argument("--tech", type=int, default=None,
                        help="technology node in nm for GDS input "
                             "(GLP carries its own)")
    parser.add_argument("--clip-size", type=_positive_int, default=None,
                        help="clip window size in nm (default: per tech)")
    parser.add_argument("--core-margin", type=_positive_int, default=None,
                        help="core-region margin in nm (default: per tech)")
    parser.add_argument("--grid", type=_grid, default=96,
                        help="raster resolution in pixels (default 96)")
    parser.add_argument("--iterations", type=_positive_int, default=6,
                        help="active-learning iterations (default 6)")
    parser.add_argument("--batch", type=_positive_int, default=15,
                        help="clips labeled per iteration (default 15)")
    parser.add_argument("--query", type=_positive_int, default=120,
                        help="query-set size per iteration (default 120)")
    parser.add_argument("--init-train", type=_positive_int, default=30,
                        help="initial training-set size (default 30)")
    parser.add_argument("--val-size", type=_positive_int, default=24,
                        help="validation-set size (default 24)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--arch", choices=("mlp", "cnn"), default="mlp")
    parser.add_argument("--precision", choices=("exact", "fast"),
                        default="exact",
                        help="compute precision: 'exact' (default) is "
                             "bit-identical float64; 'fast' runs "
                             "inference and feature encoding in float32")
    parser.add_argument("--workers", type=_nonnegative_int, default=0,
                        help="data-plane pool width for extraction and "
                             "litho labeling (default 0 = in-process)")
    parser.add_argument("--chunk-size", type=_positive_int, default=64,
                        help="clips per data-plane chunk (default 64)")
    parser.add_argument("--feature-cache", default=None, metavar="DIR",
                        help="directory of the on-disk feature cache "
                             "(default: in-memory tier only)")
    parser.add_argument("--cache-shards", type=_nonnegative_int, default=0,
                        metavar="N",
                        help="shard the on-disk feature cache over N "
                             "subdirectories (default 0 = flat layout)")
    parser.add_argument("--max-cache-bytes", type=_positive_int, default=None,
                        metavar="B",
                        help="byte budget of the on-disk feature cache "
                             "with LRU eviction (default: unbounded)")
    parser.add_argument("--tile-size", type=_nonnegative_int, default=0, metavar="T",
                        help="run a tiled streaming full-chip scan with "
                             "the trained model, T clip windows per "
                             "tile edge (default 0 = off)")
    parser.add_argument("--scan-state", default=None, metavar="DIR",
                        help="state directory of the streaming scan "
                             "(per-tile verdicts + resume cursor; "
                             "default: no persistence)")
    parser.add_argument("--incremental",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="replay unchanged tiles from --scan-state "
                             "instead of re-scoring them (default on)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write crash-safe run checkpoints to this "
                             "directory (default: no checkpointing)")
    parser.add_argument("--checkpoint-every", type=_positive_int, default=1,
                        metavar="K",
                        help="iterations between checkpoints when "
                             "--checkpoint-dir is set (default 1)")
    parser.add_argument("--resume", default=None, metavar="CKPT",
                        help="resume from a checkpoint written by a "
                             "previous --checkpoint-dir run (base path "
                             "or .json/.npz file); continuation is "
                             "bit-identical to an uninterrupted run")
    parser.add_argument("--guard", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="run-health supervision: sentinels + "
                             "bounded recovery + graceful degradation "
                             "(default on; --no-guard disables)")
    parser.add_argument("--max-litho", type=_positive_int, default=None, metavar="N",
                        help="litho-clip budget for the AL loop; with "
                             "the guard enabled an overrun degrades to "
                             "a graceful early stop (default: unlimited)")
    parser.add_argument("--stage-timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="watchdog deadline per pooled "
                             "dataplane/litho chunk; a hung chunk is "
                             "cancelled and re-run serially "
                             "(default: no deadline)")
    parser.add_argument("--chaos-faults", type=_nonnegative_int, default=0, metavar="N",
                        help="inject N deterministic transient litho "
                             "faults into the ground-truth simulation "
                             "(robustness smoke testing)")
    from ..engine import framework_method_names

    parser.add_argument("--method", choices=framework_method_names(),
                        default="ours",
                        help="batch-selection method from the engine "
                             "registry (default: ours)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration progress lines")
    parser.add_argument("--report", default=None,
                        help="write detected hotspot windows to this file")
    parser.add_argument("--svg", default=None,
                        help="render a detection-overview SVG to this file")
    return parser


def detect_main(argv=None) -> int:
    args = build_detect_parser().parse_args(argv)

    from ..core.framework import FrameworkConfig, PSHDFramework
    from ..data.dataset import ClipDataset
    from ..data.synth import DUV_RULES, EUV_RULES
    from ..dataplane import BatchFeatureExtractor, DataPlaneConfig
    from ..engine import EventBus, ProgressPrinter
    from ..features.pipeline import FeatureExtractor
    from ..layout.clip import extract_clip_grid
    from ..litho.labeler import LithoLabeler
    from ..litho.simulator import LithoSimulator

    layout = _load_layout(args.layout, args.tech)
    if layout is None:
        return 2

    rules = EUV_RULES if layout.tech_nm <= 10 else DUV_RULES
    clip_size = args.clip_size or rules.clip_size
    core_margin = args.core_margin or rules.core_margin

    print(f"layout {layout.name}: {len(layout)} shapes, "
          f"tech {layout.tech_nm} nm")
    clips = extract_clip_grid(layout, clip_size, core_margin,
                              drop_empty=False)
    if len(clips) < args.init_train + args.val_size + args.batch:
        print(
            f"error: only {len(clips)} clips; need at least "
            f"{args.init_train + args.val_size + args.batch} "
            "(reduce --init-train/--val-size/--batch)",
            file=sys.stderr,
        )
        return 2
    print(f"extracted {len(clips)} clips of {clip_size} nm")

    bus = EventBus()
    if not args.quiet:
        bus.subscribe(ProgressPrinter())

    plane_cfg = DataPlaneConfig(
        chunk_size=args.chunk_size,
        workers=args.workers,
        disk_cache_dir=args.feature_cache,
        disk_cache_shards=args.cache_shards,
        max_disk_cache_bytes=args.max_cache_bytes,
        task_timeout=args.stage_timeout,
        precision=args.precision,
    )
    simulator = LithoSimulator.for_tech(layout.tech_nm, grid=args.grid)
    if args.chaos_faults > 0:
        from ..engine.faults import FaultInjector, FaultPlan
        from ..litho.faults import FlakySimulator

        # spread the faults so the per-clip retry budget absorbs each
        # one (consecutive call indices never share a fault)
        plan = FaultPlan(
            dict.fromkeys(range(0, 7 * args.chaos_faults, 7), "fail")
        )
        simulator = FlakySimulator(simulator, FaultInjector(plan))
        print(f"chaos: injecting {args.chaos_faults} transient litho "
              "faults")
    print("labeling ground truth via lithography simulation "
          "(reference only; the flow is charged per queried clip)...")
    labels = np.array(
        LithoLabeler(simulator, bus=bus).label_batch(
            clips,
            chunk_size=plane_cfg.chunk_size,
            workers=plane_cfg.workers,
            timeout=plane_cfg.task_timeout,
        ),
        dtype=np.int64,
    )

    extractor = FeatureExtractor(grid=args.grid)
    features = BatchFeatureExtractor(
        extractor, config=plane_cfg, bus=bus
    ).extract(clips)
    dataset = ClipDataset(
        name=layout.name,
        tech_nm=layout.tech_nm,
        clips=clips,
        labels=labels,
        tensors=features.tensors,
        flats=features.flats,
        meta={"density_cells": extractor.density_cells,
              "hashes": np.array([c.geometry_hash() for c in clips]),
              "core_hashes": np.array(
                  [c.core_geometry_hash() for c in clips]),
              "geometry_available": True},
    )
    print(f"ground truth: {dataset.n_hotspots} hotspot clips "
          f"({dataset.hotspot_ratio:.1%})")

    from ..engine.guard import GuardConfig

    config = FrameworkConfig(
        n_query=args.query,
        k_batch=args.batch,
        n_iterations=args.iterations,
        init_train=args.init_train,
        val_size=args.val_size,
        arch=args.arch,
        seed=args.seed,
        precision=args.precision,
        selector=args.method,  # resolved through the engine registry
        dataplane=plane_cfg,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(
            args.checkpoint_every if args.checkpoint_dir else 0
        ),
        guard=GuardConfig(enabled=args.guard, max_litho=args.max_litho),
    )
    framework = PSHDFramework(dataset, config, bus=bus)
    if args.resume:
        from ..engine.checkpoint import CheckpointError

        try:
            result = framework.resume(args.resume)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        result = framework.run()

    print(f"\ndetection accuracy (Eq. 1): {100 * result.accuracy:.2f}%")
    print(f"litho-clips (Eq. 2):        {result.litho} "
          f"of {len(dataset)} clips")
    print(f"hits / false alarms:        {result.hits} / "
          f"{result.false_alarms}")
    print(f"modelled runtime:           {result.runtime_seconds:.0f} s")
    if result.guard is not None:
        print(f"guard report:               {result.guard['final_mode']} "
              f"({result.guard['n_alerts']} alerts, "
              f"{result.guard['n_recoveries']} recoveries)")

    scan_report = None
    if args.tile_size > 0:
        from ..dataplane.stream import StreamConfig, scan_layout

        print(f"\nstreaming full-chip scan ({args.tile_size} clips per "
              "tile edge)...")
        scan_report = scan_layout(
            layout,
            clip_size,
            core_margin,
            classifier=framework.classifier,
            temperature=framework.final_temperature_,
            extractor=extractor,
            dataplane=plane_cfg,
            stream=StreamConfig(
                tile_clips=args.tile_size,
                state_dir=args.scan_state,
                incremental=args.incremental,
            ),
            bus=bus,
        )
        print(f"scan: {scan_report.n_hotspots} hotspot windows in "
              f"{scan_report.n_clips} clips over {scan_report.n_tiles} "
              f"tiles ({scan_report.replayed_tiles} replayed, "
              f"{scan_report.rescored_tiles} scored)")

    if args.report and scan_report is not None:
        lines = ["# detected hotspot clip windows (x0 y0 x1 y1)"]
        for hotspot in scan_report.hotspots:
            lines.append("%d %d %d %d  # p=%.4f" % (
                *hotspot["window"], hotspot["score"]))
        with open(args.report, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"report written to {args.report}")
    elif args.report:
        lines = ["# detected hotspot clip windows (x0 y0 x1 y1)"]
        labeled_arr = result.labeled if result.labeled is not None else []
        labeled = set(int(i) for i in labeled_arr)
        for i, clip in enumerate(dataset.clips):
            if dataset.labels[i] == 1 and i in labeled:
                lines.append("%d %d %d %d  # labeled" % clip.window.as_tuple())
        with open(args.report, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"report written to {args.report}")

    if args.svg:
        from ..viz.svg import render_detection_svg

        labeled_arr = result.labeled if result.labeled is not None else []
        render_detection_svg(dataset, labeled_arr, args.svg)
        print(f"detection overview written to {args.svg}")
    return 0


# ----------------------------------------------------------------------
# repro-benchmark
# ----------------------------------------------------------------------

def build_benchmark_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-benchmark",
        description="Build ICCAD-style benchmark datasets (cached).",
    )
    parser.add_argument("names", nargs="*", default=None,
                        help="benchmark names (default: all)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the bench-standard dataset scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-cache", action="store_true",
                        help="force a fresh build")
    return parser


def benchmark_main(argv=None) -> int:
    args = build_benchmark_parser().parse_args(argv)

    from ..bench.harness import BENCH_SETTINGS
    from ..data.benchmarks import benchmark_names, build_benchmark

    names = args.names or benchmark_names()
    known = set(benchmark_names())
    for name in names:
        if name not in known:
            print(f"error: unknown benchmark {name!r}; known: "
                  f"{sorted(known)}", file=sys.stderr)
            return 2

    for name in names:
        if args.scale is not None:
            scale = args.scale
        elif name in BENCH_SETTINGS:
            scale = BENCH_SETTINGS[name].scale
        else:
            scale = 1.0
        dataset = build_benchmark(
            name, scale=scale, seed=args.seed, use_cache=not args.no_cache
        )
        print(f"{dataset.summary()}  (n={len(dataset)}, scale={scale:g})")
    return 0


# ----------------------------------------------------------------------
# repro-report
# ----------------------------------------------------------------------

def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts", nargs="+",
        choices=("table1", "table2", "table3", "fig2", "fig3", "fig4",
                 "fig5", "fig6a", "fig6b"),
        help="which artifacts to regenerate",
    )
    parser.add_argument("--seeds", type=int, default=None,
                        help="seeds to average over (default env/2)")
    return parser


def report_main(argv=None) -> int:
    args = build_report_parser().parse_args(argv)

    from .. import bench

    generators = {
        "table1": lambda: bench.table1()[1],
        "table2": lambda: bench.table2(seeds=args.seeds)[1],
        "table3": lambda: bench.table3(seeds=args.seeds)[1],
        "fig2": lambda: bench.fig2_reliability()[1],
        "fig3": lambda: bench.fig3_diversity()[1],
        "fig4": lambda: bench.fig4_tradeoff()[1],
        "fig5": lambda: bench.fig5_layout()[1],
        "fig6a": lambda: bench.fig6a_weights()[1],
        "fig6b": lambda: bench.fig6b_runtime()[1],
    }
    for artifact in args.artifacts:
        text = generators[artifact]()
        bench.write_report(artifact, text)
    return 0


# ----------------------------------------------------------------------
# repro-convert
# ----------------------------------------------------------------------

def build_convert_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description="Convert layouts between GLP text and GDSII binary.",
    )
    parser.add_argument("source", help="input layout (.glp or .gds)")
    parser.add_argument("target", help="output layout (.glp or .gds)")
    parser.add_argument("--tech", type=int, default=28,
                        help="technology nm for GDS input (default 28)")
    return parser


def convert_main(argv=None) -> int:
    args = build_convert_parser().parse_args(argv)

    from ..layout.gds import load_gds, save_gds
    from ..layout.glp import load_layout, save_layout

    def is_gds(name: str) -> bool:
        return name.lower().endswith((".gds", ".gdsii"))

    try:
        if is_gds(args.source):
            layout = load_gds(args.source, tech_nm=args.tech)
        else:
            layout = load_layout(args.source)
        if is_gds(args.target):
            save_gds(layout, args.target)
        else:
            save_layout(layout, args.target)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.source} -> {args.target}: {len(layout)} shapes")
    return 0


# ----------------------------------------------------------------------
# repro-serve
# ----------------------------------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Hotspot-detection daemon on a layout: "
                    "quick-train a model, start the DetectionServer, "
                    "and drive it with concurrent demo clients.",
    )
    parser.add_argument("layout",
                        help="path to a layout file (.glp text or .gds)")
    parser.add_argument("--tech", type=int, default=None,
                        help="technology node in nm for GDS input "
                             "(GLP carries its own)")
    parser.add_argument("--grid", type=_grid, default=96,
                        help="raster resolution in pixels (default 96)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--arch", choices=("mlp", "cnn"), default="mlp")
    parser.add_argument("--precision", choices=("exact", "fast"),
                        default="exact")
    parser.add_argument("--train-clips", type=_positive_int, default=48,
                        metavar="N",
                        help="clips litho-labeled to train the served "
                             "model (default 48)")
    parser.add_argument("--epochs", type=_positive_int, default=6,
                        help="training epochs of the served model "
                             "(default 6)")
    parser.add_argument("--clients", type=_positive_int, default=2,
                        help="concurrent demo clients (default 2)")
    parser.add_argument("--requests", type=_positive_int, default=4,
                        metavar="M",
                        help="requests per client (default 4)")
    parser.add_argument("--request-clips", type=_positive_int, default=8,
                        metavar="K",
                        help="clips per request (default 8)")
    parser.add_argument("--max-pending", type=_positive_int, default=2048,
                        help="admission bound on queued clips "
                             "(default 2048)")
    parser.add_argument("--threshold", type=_nonnegative_float, default=0.5,
                        help="hotspot verdict threshold on the "
                             "calibrated probability (default 0.5)")
    parser.add_argument("--max-litho", type=_positive_int, default=None,
                        metavar="N",
                        help="litho-clip budget shared by training and "
                             "want-labels serving (default: unlimited)")
    parser.add_argument("--chunk-size", type=_positive_int, default=64,
                        help="clips per data-plane chunk (default 64)")
    parser.add_argument("--listen", default=None, metavar="HOST",
                        help="serve over the network: bind this host "
                             "and accept framed socket requests until "
                             "SIGTERM (default: in-process demo mode)")
    parser.add_argument("--port", type=_port, default=7643,
                        help="TCP port of --listen mode (default 7643)")
    parser.add_argument("--max-connections", type=_positive_int,
                        default=32, metavar="N",
                        help="live-connection cap; further connections "
                             "are shed with a retryable error frame "
                             "(default 32)")
    parser.add_argument("--read-timeout", type=_positive_float,
                        default=30.0, metavar="SECONDS",
                        help="per-connection read deadline (default 30)")
    parser.add_argument("--write-timeout", type=_positive_float,
                        default=30.0, metavar="SECONDS",
                        help="per-connection write deadline (default 30)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request event lines")
    return parser


def serve_main(argv=None) -> int:
    args = build_serve_parser().parse_args(argv)

    import threading
    import time

    from ..engine import EventBus, ProgressPrinter
    from ..engine.guard import GuardConfig, RunSupervisor
    from ..serve import ServeConfig
    from ..serve.bootstrap import bootstrap_server

    layout = _load_layout(args.layout, args.tech)
    if layout is None:
        return 2

    bus = EventBus()
    if not args.quiet:
        bus.subscribe(ProgressPrinter())

    supervisor = RunSupervisor(GuardConfig(max_litho=args.max_litho), bus)
    supervisor.attach()
    try:
        booted = bootstrap_server(
            layout,
            train_clips=args.train_clips,
            grid=args.grid,
            seed=args.seed,
            arch=args.arch,
            epochs=args.epochs,
            precision=args.precision,
            chunk_size=args.chunk_size,
            max_litho=args.max_litho,
            serve_config=ServeConfig(
                max_pending_clips=args.max_pending,
                threshold=args.threshold,
            ),
            bus=bus,
            supervisor=supervisor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = booted.server
    print(f"layout {layout.name}: {len(booted.clips)} clips, "
          f"tech {layout.tech_nm} nm")
    print(f"model v1 trained on {args.train_clips} clips "
          f"({int(booted.train_labels.sum())} hotspots, "
          f"T={booted.temperature.temperature_:.3f})")

    if args.listen is not None:
        from ..serve.transport import SocketTransport, TransportConfig

        transport = SocketTransport(
            server,
            config=TransportConfig(
                host=args.listen,
                port=args.port,
                max_connections=args.max_connections,
                read_timeout_s=args.read_timeout,
                write_timeout_s=args.write_timeout,
            ),
            bus=bus,
            supervisor=supervisor,
        )
        transport.start()
        # the reconnect tests parse this exact line for readiness
        print(f"listening on {transport.address[0]}:"
              f"{transport.address[1]} (pid {os.getpid()})",
              flush=True)
        transport.run_until_signalled()
        supervisor.detach()
        stats = server.stats()
        print(f"drained: served {stats['completed']} requests, "
              f"{stats['rejected']} shed")
        return 0

    if len(booted.serve_pool) < args.request_clips:
        print(
            f"error: only {len(booted.serve_pool)} clips left to serve; "
            "reduce --train-clips/--request-clips",
            file=sys.stderr,
        )
        server.close(drain=False)
        return 2
    serve_pool = booted.serve_pool
    latencies: list[float] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = np.random.default_rng(args.seed + 1000 + index)
        for _ in range(args.requests):
            rows = rng.choice(len(serve_pool), size=args.request_clips,
                              replace=False)
            request = [serve_pool[int(r)] for r in rows]
            started = time.perf_counter()
            result = server.submit(request, model="v1", timeout=120.0)
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
            assert len(result.scores) == args.request_clips

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(args.clients)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    wall = time.perf_counter() - wall_start
    server.close(drain=True)
    supervisor.detach()

    if any(thread.is_alive() for thread in threads):
        print("error: serve clients did not finish", file=sys.stderr)
        return 1

    stats = server.stats()
    total_clips = args.clients * args.requests * args.request_clips
    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    print(f"\nserved {stats['completed']} requests / {total_clips} clips "
          f"in {wall:.2f}s ({total_clips / wall:.0f} clips/s)")
    print(f"latency p50 {np.percentile(lat_ms, 50):.1f} ms, "
          f"p99 {np.percentile(lat_ms, 99):.1f} ms")
    print(f"dispatched {stats['batches']} batches, mean "
          f"{stats['mean_batch_clips']:.1f} clips/batch")
    for tenant, counters in sorted(stats["cache_tenants"].items()):
        print(f"cache[{tenant}]: {counters['hits']} hits, "
              f"{counters['misses']} misses")
    return 0


# ----------------------------------------------------------------------
# repro-query
# ----------------------------------------------------------------------

def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query",
        description="Remote client of a `repro serve --listen` daemon: "
                    "submit clips off a layout for scoring, or probe "
                    "the daemon's health/stats.",
    )
    parser.add_argument("layout", nargs="?", default=None,
                        help="layout file (.glp/.gds) whose clips are "
                             "submitted (omit with --health/--stats)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host (default 127.0.0.1)")
    parser.add_argument("--port", type=_port, default=7643,
                        help="daemon port (default 7643)")
    parser.add_argument("--tech", type=int, default=None,
                        help="technology node in nm for GDS input")
    parser.add_argument("--model", default=None,
                        help="model version to score with (default: the "
                             "daemon's single registered model)")
    parser.add_argument("--clips", type=_positive_int, default=16,
                        metavar="N",
                        help="clips submitted per request (default 16)")
    parser.add_argument("--offset", type=_nonnegative_int, default=0,
                        metavar="K",
                        help="skip the first K extracted clips "
                             "(default 0)")
    parser.add_argument("--requests", type=_positive_int, default=1,
                        metavar="M",
                        help="consecutive requests to send (default 1)")
    parser.add_argument("--timeout", type=_positive_float, default=30.0,
                        metavar="SECONDS",
                        help="end-to-end deadline per request; the "
                             "remaining budget rides the frame header "
                             "and bounds the server-side queue wait "
                             "(default 30)")
    parser.add_argument("--retries", type=_positive_int, default=5,
                        help="attempts per request on retryable "
                             "transport faults (default 5)")
    parser.add_argument("--health", action="store_true",
                        help="print the daemon's health JSON and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print the daemon's stats JSON (transport "
                             "+ server counters + guard report) and "
                             "exit")
    return parser


def query_main(argv=None) -> int:
    args = build_query_parser().parse_args(argv)

    import json
    from dataclasses import replace

    from ..serve.transport import (
        ClientConfig,
        DetectionClient,
        TransportError,
    )

    config = ClientConfig(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
        retry=replace(ClientConfig.retry, attempts=args.retries),
    )
    with DetectionClient(config) as client:
        try:
            if args.health or args.stats:
                probe = client.health() if args.health else client.stats()
                print(json.dumps(probe, indent=2, sort_keys=True))
                return 0
            if args.layout is None:
                print("error: a layout is required unless --health or "
                      "--stats is given", file=sys.stderr)
                return 2

            from ..data.synth import DUV_RULES, EUV_RULES
            from ..layout.clip import extract_clip_grid

            layout = _load_layout(args.layout, args.tech)
            if layout is None:
                return 2
            rules = EUV_RULES if layout.tech_nm <= 10 else DUV_RULES
            clips = extract_clip_grid(
                layout, rules.clip_size, rules.core_margin, drop_empty=False
            )[args.offset :]
            if not clips:
                print(f"error: no clips past --offset {args.offset}",
                      file=sys.stderr)
                return 2

            total = hotspots = 0
            for i in range(args.requests):
                chunk = clips[i * args.clips : (i + 1) * args.clips]
                if not chunk:
                    break
                result = client.submit(chunk, model=args.model)
                total += len(result.scores)
                hotspots += result.n_hotspots
                print(f"request {i + 1}: {result.n_hotspots} hotspots in "
                      f"{len(result.scores)} clips "
                      f"(model {result.model})")
            print(f"total: {hotspots} hotspots in {total} clips")
            return 0
        except TransportError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


# ----------------------------------------------------------------------
# umbrella entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    """Umbrella dispatcher: ``repro <detect|serve|benchmark|...> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro <detect|serve|query|benchmark|report|convert> "
              "[options]\n"
              "  detect     run PSHD on a layout (.glp/.gds)\n"
              "  serve      detection daemon (--listen for the\n"
              "             network transport, else demo clients)\n"
              "  query      remote client of a serve --listen daemon\n"
              "  benchmark  build ICCAD-style datasets\n"
              "  report     regenerate the paper's tables/figures\n"
              "  convert    convert between GLP and GDSII")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "detect":
        return detect_main(rest)
    if command == "serve":
        return serve_main(rest)
    if command == "query":
        return query_main(rest)
    if command == "benchmark":
        return benchmark_main(rest)
    if command == "report":
        return report_main(rest)
    if command == "convert":
        return convert_main(rest)
    print(f"error: unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
