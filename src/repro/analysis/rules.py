"""AST rules of ``reprolint`` — repo-specific invariants ruff cannot see.

Each rule walks one parsed module and yields :class:`Violation` records.
The rules encode invariants earlier PRs rely on:

``R001`` **no module-level numpy RNG** — reproducibility rests on seeded
    ``np.random.Generator`` instances threaded through call trees; the
    legacy global state (``np.random.rand``, ``np.random.seed``, …)
    silently couples unrelated runs.
``R002`` **float64 invariance of the numeric kernels** — the whole
    numeric stack (rasterization, DCT encoding through gradients) is
    float64; a stray ``np.float32`` literal or ``astype`` downcast
    truncates bits that the bit-identity tests of the data plane depend
    on.  Scope: ``repro/nn``, ``repro/features`` and ``repro/layout``,
    whose int64 clip boxes become the raster's float64 input and whose
    raster feeds both the litho verdicts and the DCT features, so a
    downcast there would change every label and every feature.
``R003`` **registered event names only** — ``EventBus.emit`` rejects
    unknown kinds at runtime; the linter catches the typo before any
    code runs by checking literal emit names against ``EVENT_KINDS``.
``R004`` **no per-clip FeatureExtractor calls outside the data plane**
    (PR 2's invariant) — production code must go through
    ``repro.dataplane.BatchFeatureExtractor`` so caching, chunking and
    observability are never bypassed.
``R005`` **no mutable default arguments** — a shared default list/dict
    is state smuggled across calls.
``R006`` **contract coverage** — public module-level functions with
    ndarray-annotated signatures in the contracted modules must declare
    a ``@contract`` or carry an explicit ``# reprolint: no-contract``
    waiver.

Concurrency rules R007–R011 live in :mod:`.rules_concurrency` and are
merged into :data:`RULES` below.

This module depends only on the standard library so the linter can run
in environments without numpy installed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["LintContext", "Violation", "RULES", "run_rules"]


@dataclass(frozen=True)
class Violation:
    """One reprolint finding, ruff-style addressable."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Per-run configuration shared by all rules.

    ``module_path`` is the file's path normalized to forward slashes;
    rules use suffix matching against it to scope themselves (e.g. R002
    only inside ``repro/nn``, ``repro/features`` and ``repro/layout``).
    """

    module_path: str
    #: registered event kinds harvested from engine/events.py, or None
    #: when the lint roots did not include it (membership not checked)
    event_kinds: frozenset[str] | None = None
    #: path fragments of modules whose public array functions must carry
    #: contracts (R006)
    contract_modules: frozenset[str] = field(default_factory=frozenset)
    #: true for files under the production source tree (R004 scope)
    in_src: bool = False
    #: raw module source, for rules driven by comment conventions
    #: (R007/R011's ``#: guarded_by:`` / ``#: requires:`` annotations);
    #: None disables the comment-driven halves of those rules
    source: str | None = None


def _is_np_random(node: ast.expr) -> bool:
    """Matches ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


#: np.random attributes that are fine: seeded-generator construction
_SEEDED_RNG_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)


def rule_r001(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R001: no legacy module-level numpy RNG."""
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_np_random(node.value)
            and node.attr not in _SEEDED_RNG_OK
        ):
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"np.random.{node.attr} uses the unseeded global RNG; "
                    "thread a seeded np.random.Generator instead",
                )
            )
        if isinstance(node, ast.ImportFrom) and node.module in (
            "numpy.random",
        ):
            for alias in node.names:
                if alias.name not in _SEEDED_RNG_OK:
                    out.append(
                        (
                            node.lineno,
                            node.col_offset,
                            f"importing {alias.name!r} from numpy.random "
                            "exposes the unseeded global RNG",
                        )
                    )
    return [_v(context.module_path, line, col, "R001", msg) for line, col, msg in out]


_DOWNCAST_NAMES = frozenset({"float32", "float16", "half", "single", "csingle"})
_R002_SCOPES = ("repro/nn/", "repro/features/", "repro/layout/")
#: rule-level allowlist: the compute runtime is the single sanctioned
#: home of float32 (PrecisionPolicy's fast mode); every other kernel
#: module must obtain its compute dtype through the policy
_R002_ALLOWED = ("repro/nn/runtime.py",)


def rule_r002(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R002: no float32/float16 literals or downcasts in f8 kernels:
    the nn, features and layout packages.

    ``repro/nn/runtime.py`` is allowlisted: the precision policy there
    is the one place allowed to name float32, so downcasts stay
    auditable at a single site.
    """
    if not any(scope in context.module_path for scope in _R002_SCOPES):
        return []
    if any(context.module_path.endswith(allowed) for allowed in _R002_ALLOWED):
        return []
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _DOWNCAST_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"np.{node.attr} breaks the float64 invariance of the "
                    "layout/features/nn kernels",
                )
            )
        # dtype strings only count as call arguments ("float32" in a
        # docstring or comparison is not a downcast)
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value in _DOWNCAST_NAMES
                ):
                    out.append(
                        (
                            arg.lineno,
                            arg.col_offset,
                            f"dtype string {arg.value!r} breaks the float64 "
                            "invariance of the layout/features/nn kernels",
                        )
                    )
    return [_v(context.module_path, line, col, "R002", msg) for line, col, msg in out]


def rule_r003(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R003: literal EventBus.emit names must be registered kinds."""
    if context.event_kinds is None:
        return []
    out = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and node.args
        ):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if first.value not in context.event_kinds:
                known = ", ".join(sorted(context.event_kinds))
                out.append(
                    (
                        first.lineno,
                        first.col_offset,
                        f"emit of unregistered event {first.value!r}; "
                        f"known kinds: {known}",
                    )
                )
    return [_v(context.module_path, line, col, "R003", msg) for line, col, msg in out]


_EAGER_METHODS = frozenset(
    {"encode", "encode_batch", "flat_batch", "flat_features",
     "raster_stack", "encode_rasters", "flats_from_rasters"}
)
_R004_EXEMPT = ("repro/dataplane/", "repro/features/")


def rule_r004(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R004: eager FeatureExtractor calls outside repro.dataplane.

    Tracks local names bound to ``FeatureExtractor(...)`` and flags
    eager extraction method calls through them, plus direct
    ``FeatureExtractor(...).encode(...)`` chains.  Scoped to production
    sources — tests and benchmarks legitimately exercise the eager path
    as a bit-identity baseline.
    """
    if not context.in_src:
        return []
    if any(scope in context.module_path for scope in _R004_EXEMPT):
        return []

    def _is_fx_ctor(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name)
                 and node.func.id == "FeatureExtractor")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "FeatureExtractor")
            )
        )

    extractor_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_fx_ctor(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    extractor_names.add(target.id)
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_fx_ctor(node.value) and isinstance(node.target, ast.Name):
                extractor_names.add(node.target.id)

    out = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _EAGER_METHODS
        ):
            continue
        receiver = node.func.value
        eager = _is_fx_ctor(receiver) or (
            isinstance(receiver, ast.Name) and receiver.id in extractor_names
        )
        if eager:
            out.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"eager FeatureExtractor.{node.func.attr}() outside "
                    "repro.dataplane; route through BatchFeatureExtractor "
                    "so caching/chunking/observability apply",
                )
            )
    return [_v(context.module_path, line, col, "R004", msg) for line, col, msg in out]


_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray"})
_NP_ARRAY_CTORS = frozenset({"array", "zeros", "ones", "empty", "full"})


def rule_r005(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R005: no mutable default arguments."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            )
            if isinstance(default, ast.Call):
                fn = default.func
                if isinstance(fn, ast.Name) and fn.id in _MUTABLE_CTORS:
                    mutable = True
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in _NP_ARRAY_CTORS
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy")
                ):
                    mutable = True
            if mutable:
                out.append(
                    (
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the function",
                    )
                )
    return [_v(context.module_path, line, col, "R005", msg) for line, col, msg in out]


def _annotation_mentions_ndarray(node: ast.expr | None) -> bool:
    if node is None:
        return False
    try:
        return "ndarray" in ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        return False


def _has_contract_decorator(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "contract":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "contract":
            return True
    return False


def rule_r006(tree: ast.Module, context: LintContext) -> list[Violation]:
    """R006: public array functions in contracted modules need contracts.

    Applies to module-level ``def``s (not methods) whose signature
    annotations mention ``np.ndarray``; waive intentional exceptions
    with ``# reprolint: no-contract`` on the def line.
    """
    if not any(frag in context.module_path for frag in context.contract_modules):
        return []
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.startswith("_"):
            continue
        touches_arrays = _annotation_mentions_ndarray(node.returns) or any(
            _annotation_mentions_ndarray(arg.annotation)
            for arg in (node.args.args + node.args.posonlyargs
                        + node.args.kwonlyargs)
        )
        if not touches_arrays:
            continue
        if _has_contract_decorator(node):
            continue
        out.append(
            (
                node.lineno,
                node.col_offset,
                f"public array function {node.name}() in a contracted "
                "module lacks @contract (waive with "
                "'# reprolint: no-contract')",
            )
        )
    return [_v(context.module_path, line, col, "R006", msg) for line, col, msg in out]


def _v(path: str, line: int, col: int, code: str, message: str) -> Violation:
    return Violation(path=path, line=line, col=col + 1, code=code,
                     message=message)


RULES = {
    "R001": rule_r001,
    "R002": rule_r002,
    "R003": rule_r003,
    "R004": rule_r004,
    "R005": rule_r005,
    "R006": rule_r006,
}

# the concurrency rules (R007–R011) live in their own module; importing
# it at the bottom avoids a cycle (it needs LintContext/Violation/_v)
from .rules_concurrency import CONCURRENCY_RULES  # noqa: E402

RULES.update(CONCURRENCY_RULES)


def run_rules(
    tree: ast.Module,
    context: LintContext,
    select: frozenset[str] | None = None,
) -> list[Violation]:
    """Run every (selected) rule over one parsed module."""
    violations: list[Violation] = []
    for code, rule in RULES.items():
        if select is not None and code not in select:
            continue
        violations.extend(rule(tree, context))
    return violations
