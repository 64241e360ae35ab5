"""Crash-safe run checkpoints: versioned payload + atomic ``.npz``/JSON I/O.

Definition 3 makes every litho-labeled clip cost ~10 s of simulated
wall-clock budget, so a :class:`~repro.core.framework.PSHDFramework`
run that dies mid-iteration loses the costliest artifacts of the flow:
paid-for labels, the trained CNN, the fitted temperature, and the
optimizer's moment state.  A :class:`RunCheckpoint` captures everything
Algorithm 2 threads between iterations —

* network weights and layer buffers (``net/...`` arrays),
* :class:`~repro.model.scaler.TensorScaler` statistics (``scaler/...``),
* optimizer slot state (``optim/...``; see
  :func:`repro.nn.optim.flatten_state`),
* the GMM posterior driving query formation (``state/posterior``),
* the fitted temperature ``T``,
* the labeled/validation/pool index sets ``L``/``V``/``U`` plus loop
  counters and the labeler's verdict/meter state,
* the ``np.random.Generator`` bit states of the run RNG and the
  training shuffle RNG,

so :meth:`~repro.core.framework.PSHDFramework.resume` re-enters the
loop with **bit-identical continuation**: the resumed run selects the
same batches, charges the same litho-clips, and ends with the same
weights as an uninterrupted run.

On disk a checkpoint is one compressed ``.npz`` (the arrays) plus one
JSON manifest (everything else, human-inspectable).  Both files are
written to a temp name and moved into place with :func:`os.replace`,
the manifest last — a manifest's presence implies a complete archive,
and a crash mid-save leaves at most a stale ``*.tmp`` file, never a
half-written checkpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..analysis.contracts import contract

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RunCheckpoint",
    "checkpoint_paths",
    "save_checkpoint",
    "load_checkpoint",
    "ScanCursor",
    "posterior_array",
    "scaler_arrays",
]

#: bump on any incompatible change to the payload layout
CHECKPOINT_VERSION = 1

#: manifest keys that must be present (schema check happens before any
#: array is touched, so corruption fails loudly and early)
_MANIFEST_FIELDS = (
    "version",
    "schema",
    "iteration",
    "rng_state",
    "shuffle_rng_state",
    "temperature",
    "index_sets",
    "labeler_state",
    "history",
    "array_keys",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


# ----------------------------------------------------------------------
# contracted array boundaries (the two array families that cross the
# framework <-> checkpoint boundary outside the weight dicts)
# ----------------------------------------------------------------------

@contract(posterior="f8[N]")
def posterior_array(posterior: np.ndarray) -> np.ndarray:
    """Validated GMM-posterior vector entering or leaving a checkpoint."""
    return np.asarray(posterior, dtype=np.float64)


@contract(mean="f8[C,H,W]", std="f8[C,H,W]")
def scaler_arrays(
    mean: np.ndarray, std: np.ndarray
) -> dict[str, np.ndarray]:
    """Validated scaler statistics as checkpoint array entries."""
    return {"scaler/mean": np.asarray(mean), "scaler/std": np.asarray(std)}


@dataclass
class RunCheckpoint:
    """One resumable snapshot of an Algorithm 2 run.

    ``schema`` is the run fingerprint (benchmark, seed, batch sizes,
    architecture, ...) that must match the resuming framework exactly;
    ``iteration`` is the last *completed* AL iteration.  ``arrays``
    holds every ndarray payload under ``net/``, ``optim/``, ``scaler/``
    and ``state/`` prefixes; everything else lives in the JSON manifest.
    """

    schema: dict
    iteration: int
    rng_state: dict
    shuffle_rng_state: dict
    temperature: float | None
    index_sets: dict
    labeler_state: dict
    history: list = field(default_factory=list)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def manifest(self) -> dict:
        """The JSON-serializable half of the payload."""
        return _jsonable(
            {
                "version": self.version,
                "schema": self.schema,
                "iteration": self.iteration,
                "rng_state": self.rng_state,
                "shuffle_rng_state": self.shuffle_rng_state,
                "temperature": self.temperature,
                "index_sets": self.index_sets,
                "labeler_state": self.labeler_state,
                "history": self.history,
                "array_keys": sorted(self.arrays),
            }
        )


def _jsonable(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def checkpoint_paths(path) -> tuple[Path, Path]:
    """``(npz_path, manifest_path)`` for a checkpoint base path.

    Accepts the bare stem or either concrete file
    (``run7``, ``run7.npz``, ``run7.json`` all name the same pair).
    """
    path = Path(path)
    if path.suffix in (".npz", ".json"):
        path = path.with_suffix("")
    return path.with_suffix(".npz"), path.with_suffix(".json")


def _atomic_replace(tmp: Path, final: Path) -> None:
    os.replace(tmp, final)


def save_checkpoint(checkpoint: RunCheckpoint, path) -> Path:
    """Write ``checkpoint`` atomically; returns the manifest path.

    The archive is replaced first and the manifest last, each through a
    ``*.tmp`` sibling + :func:`os.replace`, so a reader never observes
    a manifest without its complete archive.
    """
    npz_path, manifest_path = checkpoint_paths(path)
    npz_path.parent.mkdir(parents=True, exist_ok=True)

    for key, value in checkpoint.arrays.items():
        if not isinstance(value, np.ndarray):
            raise CheckpointError(
                f"checkpoint array {key!r} is {type(value).__name__}, "
                "not ndarray"
            )

    tmp_npz = npz_path.with_name(npz_path.name + ".tmp.npz")
    tmp_manifest = manifest_path.with_name(manifest_path.name + ".tmp")
    try:
        np.savez_compressed(tmp_npz, **checkpoint.arrays)
        _atomic_replace(tmp_npz, npz_path)
        tmp_manifest.write_text(
            json.dumps(checkpoint.manifest(), indent=2, sort_keys=True)
        )
        _atomic_replace(tmp_manifest, manifest_path)
    finally:
        for leftover in (tmp_npz, tmp_manifest):
            if leftover.exists():
                leftover.unlink()
    return manifest_path


def load_checkpoint(path) -> RunCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` (never a raw ``KeyError``) on a
    missing file, an unreadable manifest, a version mismatch, or an
    archive whose array keys disagree with the manifest.
    """
    npz_path, manifest_path = checkpoint_paths(path)
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    if not npz_path.exists():
        raise CheckpointError(
            f"checkpoint archive {npz_path} missing (manifest present — "
            "the archive was deleted or the save was interrupted)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint manifest {manifest_path}: {exc}"
        ) from exc

    missing = [k for k in _MANIFEST_FIELDS if k not in manifest]
    if missing:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} lacks fields {missing}"
        )
    if manifest["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest['version']} != supported "
            f"{CHECKPOINT_VERSION} ({manifest_path})"
        )

    try:
        with np.load(npz_path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint archive {npz_path}: {exc}"
        ) from exc
    if sorted(arrays) != list(manifest["array_keys"]):
        raise CheckpointError(
            f"checkpoint archive {npz_path} does not match its manifest: "
            f"archive has {sorted(arrays)}, "
            f"manifest expects {manifest['array_keys']}"
        )

    return RunCheckpoint(
        schema=manifest["schema"],
        iteration=int(manifest["iteration"]),
        rng_state=manifest["rng_state"],
        shuffle_rng_state=manifest["shuffle_rng_state"],
        temperature=manifest["temperature"],
        index_sets=manifest["index_sets"],
        labeler_state=manifest["labeler_state"],
        history=manifest["history"],
        arrays=arrays,
        version=int(manifest["version"]),
    )


# ----------------------------------------------------------------------
# streaming-scan cursor
# ----------------------------------------------------------------------
class ScanCursor:
    """Resumable progress marker of a tiled streaming scan.

    A full-chip scan (:class:`repro.dataplane.stream.StreamScanner`)
    completes tiles one at a time; the cursor records, per finished
    tile, the content digest its verdicts were computed from.  A killed
    scan restarted against the same cursor skips every completed tile
    whose geometry is unchanged — the same replay rule incremental
    re-detection uses after a layout edit.

    The cursor carries the lattice ``fingerprint``
    (:meth:`repro.layout.tiles.TileGrid.fingerprint`): a cursor written
    under a different die/window/tiling is ignored rather than
    misapplied.  Saves are atomic (``*.tmp`` + :func:`os.replace`), so
    a crash mid-save leaves the previous cursor intact.
    """

    def __init__(self, path, fingerprint: dict) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: tile key -> content digest of the completed tile
        self.done: dict[str, str] = {}

    @classmethod
    def load(cls, path, fingerprint: dict) -> "ScanCursor":
        """The cursor at ``path``, resumed when present and its
        fingerprint matches; a fresh cursor otherwise (an unreadable or
        mismatched file is abandoned, not an error)."""
        cursor = cls(path, fingerprint)
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cursor
        if (
            not isinstance(payload, dict)
            or payload.get("fingerprint") != fingerprint
            or not isinstance(payload.get("done"), dict)
        ):
            return cursor
        cursor.done = {
            str(key): str(digest)
            for key, digest in payload["done"].items()
        }
        return cursor

    def is_done(self, key: str, digest: str) -> bool:
        """``True`` when ``key`` completed with exactly this digest."""
        return self.done.get(key) == digest

    def mark(self, key: str, digest: str) -> bool:
        """Record ``key`` as completed with ``digest``; ``True`` when
        that changed the cursor (so it needs saving)."""
        changed = self.done.get(key) != digest
        self.done[key] = digest
        return changed

    def save(self) -> Path:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {"fingerprint": self.fingerprint, "done": self.done},
                indent=2,
                sort_keys=True,
            )
        )
        _atomic_replace(tmp, self.path)
        return self.path

    def reset(self) -> None:
        """Forget all progress and remove the on-disk cursor."""
        self.done = {}
        try:
            self.path.unlink()
        except OSError:
            pass
