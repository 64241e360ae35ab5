"""Golden Algorithm 2 run: print or rewrite the pinned record.

One seeded exact-precision run each for ``arch="mlp"`` and
``arch="cnn"`` on a freshly built ``iccad16-2`` case.  The record holds
what a refactor must not move: the dataset digest, every iteration's
selected indices, Litho#, Acc%, the final temperature and a digest of
the final weights.

Float results depend on the BLAS kernel, its thread count and numpy's
SIMD dispatch, so every run happens in a fresh process under
:func:`pinned_env` (the script re-executes itself under it when
started without it).  The pins only name x86 OpenBLAS kernels, so the
record also holds the :func:`platform_identity` it was made on::

    PYTHONPATH=src python tests/core/golden_alg2.py             # print JSON
    PYTHONPATH=src python tests/core/golden_alg2.py --platform  # identity only
    PYTHONPATH=src python tests/core/golden_alg2.py --write     # rewrite the golden

``test_golden_alg2.py`` runs the first form and compares.  Rewrite the
golden file only with the reason written down in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_alg2.json")
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: each of these changed the float results on an AVX-512 host when left
#: at its default: two BLAS threads, the BLAS core type, and numpy's
#: AVX-512 loops
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

DATASET = dict(name="iccad16-2", scale=0.3, seed=0)
CONFIG = dict(
    n_query=60,
    k_batch=10,
    n_iterations=3,
    init_train=24,
    val_size=20,
    epochs_initial=8,
    epochs_update=3,
    seed=3,
)
ARCHS = ("mlp", "cnn")


def pinned_env() -> dict[str, str]:
    """The current environment with the pins set, ``REPRO_CHECK``
    removed and this checkout's ``src`` first on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CHECK"}
    env.update(PINS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + path if path else "")
    return env


def platform_identity() -> dict:
    """The machine, OS, BLAS build and the SIMD targets numpy dispatches
    to; under the pins the last shows which AVX-512 loops are off."""
    import platform

    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": sys.platform,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": config["SIMD Extensions"]["found"],
    }


def _is_pinned() -> bool:
    return "REPRO_CHECK" not in os.environ and all(
        os.environ.get(k) == v for k, v in PINS.items()
    )


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def _run(dataset, arch: str) -> dict:
    from repro.core import FrameworkConfig, PSHDFramework
    from repro.engine.events import EventBus, EventLog

    bus = EventBus()
    log = bus.subscribe(EventLog())
    framework = PSHDFramework(
        dataset, FrameworkConfig(arch=arch, **CONFIG), bus=bus
    )
    result = framework.run()
    weights = framework.classifier.network.get_weights()
    digest = hashlib.sha256()
    for key in sorted(weights):
        digest.update(key.encode())
        digest.update(weights[key].tobytes())
    return {
        "selected": [
            e.payload["selected"] for e in log.of_kind("batch_selected")
        ],
        "litho": int(result.litho),
        "accuracy": float(result.accuracy),
        "temperature": repr(float(framework.final_temperature_.temperature_)),
        "weights_sha256": digest.hexdigest(),
    }


def compute() -> dict:
    """Build the dataset and run both architectures."""
    import numpy as np
    import scipy

    from repro.data import build_benchmark

    dataset = build_benchmark(
        DATASET["name"],
        scale=DATASET["scale"],
        seed=DATASET["seed"],
        use_cache=False,
    )
    return {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "pins": PINS,
        "platform": platform_identity(),
        "dataset": dict(
            DATASET,
            n_clips=len(dataset),
            sha256=_sha256(dataset.labels, dataset.tensors, dataset.flats),
        ),
        "config": CONFIG,
        "runs": {arch: _run(dataset, arch) for arch in ARCHS},
    }


def main(argv: list[str]) -> int:
    if not _is_pinned():
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv], pinned_env())
    if "--platform" in argv:
        sys.stdout.write(json.dumps(platform_identity()) + "\n")
        return 0
    text = json.dumps(compute(), indent=1) + "\n"
    if "--write" in argv:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
