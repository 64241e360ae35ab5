"""Algorithm 2 against its committed golden record.

The other determinism tests compare one run with another, so a change
that moves both runs the same way (a reordered optimizer update, say)
passes them.  This test re-runs the pinned ``mlp`` and ``cnn`` runs of
``golden_alg2.py`` in a fresh process with the pinned BLAS and SIMD
settings, and compares every recorded item exactly.  It skips, naming
both sides, where those pins cannot reproduce the record: other numpy
or scipy versions, or another machine, OS, BLAS build or set of SIMD
targets.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy

from .golden_alg2 import ARCHS, GOLDEN_PATH, pinned_env, platform_identity


def first_difference(expected: dict, actual: dict) -> str | None:
    """Name of the first recorded item that differs, or None."""
    if actual["dataset"] != expected["dataset"]:
        return f"dataset: {expected['dataset']} != {actual['dataset']}"
    for arch in ARCHS:
        want, got = expected["runs"][arch], actual["runs"][arch]
        n_iter = max(len(want["selected"]), len(got["selected"]))
        for i in range(n_iter):
            a = want["selected"][i] if i < len(want["selected"]) else None
            b = got["selected"][i] if i < len(got["selected"]) else None
            if a != b:
                return f"{arch} iteration {i + 1} selected: {a} != {b}"
        for key, label in (
            ("litho", "Litho#"),
            ("accuracy", "Acc"),
            ("temperature", "final temperature"),
            ("weights_sha256", "final weights sha256"),
        ):
            if want[key] != got[key]:
                return f"{arch} {label}: {want[key]} != {got[key]}"
    return None


def _run_pinned(*args: str, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(GOLDEN_PATH.with_suffix(".py")), *args],
        env=pinned_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout)


def _describe(identity: dict) -> str:
    simd = " ".join(identity["simd"]) or "none"
    return (
        f"{identity['machine']} {identity['system']}, {identity['blas']}, "
        f"SIMD {simd}"
    )


def test_alg2_matches_golden_record():
    expected = json.loads(GOLDEN_PATH.read_text())
    recorded = expected["versions"]
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != recorded:
        pytest.skip(
            f"golden recorded under numpy {recorded['numpy']} / scipy "
            f"{recorded['scipy']}; installed numpy {installed['numpy']} / "
            f"scipy {installed['scipy']}"
        )
    host = _run_pinned("--platform", timeout=60)
    if host != expected["platform"]:
        pytest.skip(
            f"golden recorded on {_describe(expected['platform'])}; "
            f"this host under the pins is {_describe(host)}"
        )
    actual = _run_pinned(timeout=300)
    assert actual["versions"] == recorded
    assert first_difference(expected, actual) is None


def test_record_names_its_platform():
    recorded = json.loads(GOLDEN_PATH.read_text())["platform"]
    assert set(recorded) == set(platform_identity())
    assert recorded["machine"] in _describe(recorded)


class TestFirstDifference:
    def record(self):
        run = {
            "selected": [[1, 2], [3, 4]],
            "litho": 9,
            "accuracy": 0.5,
            "temperature": "1.5",
            "weights_sha256": "ab",
        }
        return {
            "dataset": {"sha256": "cd"},
            "runs": {arch: dict(run) for arch in ARCHS},
        }

    def test_equal_records(self):
        assert first_difference(self.record(), self.record()) is None

    def test_names_dataset_first(self):
        changed = self.record()
        changed["dataset"] = {"sha256": "ef"}
        changed["runs"]["mlp"]["litho"] = 10
        assert first_difference(self.record(), changed).startswith("dataset")

    def test_names_first_differing_iteration(self):
        changed = self.record()
        changed["runs"]["cnn"]["selected"] = [[1, 2], [3, 5]]
        changed["runs"]["cnn"]["weights_sha256"] = "00"
        assert first_difference(self.record(), changed) == (
            "cnn iteration 2 selected: [3, 4] != [3, 5]"
        )

    def test_names_missing_iteration(self):
        changed = self.record()
        changed["runs"]["mlp"]["selected"] = [[1, 2]]
        assert first_difference(self.record(), changed) == (
            "mlp iteration 2 selected: [3, 4] != None"
        )

    def test_names_scalar_items(self):
        changed = self.record()
        changed["runs"]["mlp"]["temperature"] = "1.25"
        assert first_difference(self.record(), changed) == (
            "mlp final temperature: 1.5 != 1.25"
        )
