"""Argument validation of the ``repro`` CLI parsers.

Regression tests for the silent-clamp bug: ``--batch 0``,
``--chunk-size 0`` and friends used to be accepted at parse time and
clamped (or crash) deep inside the run — now argparse rejects them
with a clear message and exit code 2.
"""

import pytest

from repro.cli.main import (
    build_detect_parser,
    build_query_parser,
    build_serve_parser,
)


def _parse_detect(extra):
    return build_detect_parser().parse_args(["layout.glp", *extra])


class TestDetectValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--batch", "0"],
            ["--batch", "-3"],
            ["--core-margin", "0"],
            ["--chaos-faults", "-1"],
            ["--chunk-size", "0"],
            ["--iterations", "0"],
            ["--query", "0"],
            ["--init-train", "0"],
            ["--val-size", "-2"],
            ["--grid", "0"],
            ["--clip-size", "-100"],
            ["--workers", "-1"],
            ["--cache-shards", "-4"],
            ["--tile-size", "-1"],
            ["--checkpoint-every", "0"],
            ["--max-litho", "0"],
            ["--max-cache-bytes", "-5"],
            ["--stage-timeout", "0"],
            ["--stage-timeout", "-0.5"],
            # grids the feature extractor rejects (DCT blocks, density
            # cells, coefficient capacity) die before any labeling
            ["--grid", "100"],
            ["--grid", "36"],
            # float() parses these; a timeout must not reach the socket
            ["--stage-timeout", "nan"],
            ["--stage-timeout", "inf"],
        ],
    )
    def test_rejects_non_positive_values(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_detect(flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err
        assert "expected a" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--batch", "two"],
            ["--chunk-size", "1.5"],
            ["--workers", "many"],
            ["--stage-timeout", "soon"],
        ],
    )
    def test_rejects_non_numeric_values(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_detect(flags)
        assert exc.value.code == 2
        assert "is not a" in capsys.readouterr().err

    def test_accepts_valid_values(self):
        args = _parse_detect(
            [
                "--batch", "5", "--workers", "0",
                "--tile-size", "0", "--cache-shards", "0",
                "--stage-timeout", "1.5",
            ]
        )
        assert args.batch == 5
        assert args.workers == 0  # zero means in-process, still legal
        assert args.tile_size == 0
        assert args.stage_timeout == 1.5


class TestServeValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--clients", "0"],
            ["--requests", "-1"],
            ["--request-clips", "0"],
            ["--max-pending", "-1"],
            ["--threshold", "-0.5"],
            ["--max-pending", "0"],
            ["--train-clips", "0"],
            ["--epochs", "0"],
            ["--max-litho", "0"],
            # the transport flags: zero/negative must die at parse
            # time, never reach a half-started daemon
            ["--port", "0"],
            ["--port", "-1"],
            ["--port", "70000"],
            ["--max-connections", "0"],
            ["--max-connections", "-2"],
            ["--read-timeout", "0"],
            ["--read-timeout", "-1.5"],
            ["--write-timeout", "0"],
            ["--grid", "100"],
            ["--grid", "36"],
            # socket.settimeout raises ValueError on NaN and
            # OverflowError on infinity
            ["--read-timeout", "nan"],
            ["--read-timeout", "inf"],
            ["--write-timeout", "nan"],
            ["--write-timeout", "inf"],
            ["--threshold", "nan"],
            ["--threshold", "inf"],
        ],
    )
    def test_rejects_bad_values(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_serve_parser().parse_args(["layout.glp", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err
        assert "expected a" in err

    def test_defaults_parse(self):
        args = build_serve_parser().parse_args(["layout.glp"])
        assert args.clients == 2
        assert args.max_pending == 2048
        assert args.threshold == 0.5
        assert args.listen is None
        assert args.port == 7643
        assert args.max_connections == 32
        assert args.read_timeout == 30.0
        # the dispatcher is FIFO: no coalescing knobs remain
        usage = build_serve_parser().format_help()
        assert "--batch-clips" not in usage
        assert "--delay-ms" not in usage


class TestQueryValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--port", "0"],
            ["--port", "65536"],
            ["--port", "-7"],
            ["--timeout", "0"],
            ["--timeout", "-1"],
            ["--retries", "0"],
            ["--retries", "-1"],
            ["--clips", "0"],
            ["--requests", "0"],
            ["--offset", "-1"],
            ["--timeout", "nan"],
            ["--timeout", "inf"],
        ],
    )
    def test_rejects_bad_values(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_query_parser().parse_args(["layout.glp", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err
        assert "expected a" in err

    def test_defaults_parse(self):
        args = build_query_parser().parse_args(["layout.glp"])
        assert args.host == "127.0.0.1"
        assert args.port == 7643
        assert args.timeout == 30.0
        assert args.retries == 5
        assert args.clips == 16
        assert args.offset == 0

    def test_health_needs_no_layout(self):
        args = build_query_parser().parse_args(["--health"])
        assert args.layout is None
        assert args.health is True
