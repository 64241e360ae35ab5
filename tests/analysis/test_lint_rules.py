"""Golden tests for each reprolint rule: fires on a violation, silent on
the fixed/waived form."""

import textwrap

from repro.analysis.linter import lint_source

EVENT_KINDS = frozenset({"features_extracted", "inference_completed"})

SRC_PATH = "src/repro/somepkg/module.py"


def lint(source, path=SRC_PATH, **kwargs):
    return lint_source(textwrap.dedent(source), path=path, **kwargs)


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# R001 — unseeded global RNG
# ----------------------------------------------------------------------
class TestR001:
    def test_fires_on_global_rng(self):
        found = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            np.random.seed(0)
            """
        )
        assert codes(found) == ["R001", "R001"]
        assert "unseeded global RNG" in found[0].message

    def test_fires_on_numpy_random_import(self):
        found = lint("from numpy.random import rand\n")
        assert codes(found) == ["R001"]

    def test_silent_on_seeded_generator(self):
        found = lint(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            gen = np.random.Generator(np.random.PCG64(1))
            """
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import numpy as np
            x = np.random.rand(3)  # reprolint: disable=R001
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R002 — float64 invariance of the nn, features and layout kernels
# ----------------------------------------------------------------------
class TestR002:
    KERNEL_PATH = "src/repro/nn/somekernel.py"

    def test_fires_on_np_float32(self):
        found = lint(
            """
            import numpy as np
            def f(x):
                return x.astype(np.float32)
            """,
            path=self.KERNEL_PATH,
        )
        assert codes(found) == ["R002"]

    def test_fires_on_dtype_string_argument(self):
        found = lint(
            """
            import numpy as np
            def f(x):
                return np.zeros(3, dtype="float16")
            """,
            path=self.KERNEL_PATH,
        )
        assert codes(found) == ["R002"]

    def test_scoped_to_nn_and_features(self):
        source = """
            import numpy as np
            def f(x):
                return x.astype(np.float32)
            """
        assert lint(source, path="src/repro/viz/plots.py") == []
        assert codes(lint(source, path="src/repro/features/k.py")) == ["R002"]

    def test_scoped_to_the_whole_layout_package(self):
        # the cut's int64 boxes become the raster's float64 input, and
        # the raster feeds both the litho verdicts and the DCT features
        source = """
            import numpy as np
            def f(x):
                return np.zeros(3, dtype="float32") + x.astype(np.float16)
            """
        for module in ("raster", "layout", "clip", "tiles", "geometry"):
            path = f"src/repro/layout/{module}.py"
            assert codes(lint(source, path=path)) == ["R002", "R002"]
        assert lint(source, path="src/repro/litho/simulator.py") == []

    def test_runtime_module_is_allowlisted(self):
        # the compute runtime is the single sanctioned float32 site
        source = """
            import numpy as np
            COMPUTE = np.float32
            def f(x):
                return x.astype(np.float32)
            """
        assert lint(source, path="src/repro/nn/runtime.py") == []
        # the allowlist is exact — sibling kernels still fire
        assert codes(lint(source, path="src/repro/nn/layers.py")) == [
            "R002", "R002",
        ]
        assert codes(lint(source, path="src/repro/features/dct.py")) == [
            "R002", "R002",
        ]

    def test_docstring_mention_is_not_flagged(self):
        found = lint(
            '''
            def f(x):
                """float32 is mentioned here but never used."""
                return x
            ''',
            path=self.KERNEL_PATH,
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import numpy as np
            def f(x):
                return x.astype(np.float32)  # reprolint: disable=R002
            """,
            path=self.KERNEL_PATH,
        )
        assert found == []


# ----------------------------------------------------------------------
# R003 — registered event names only
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_unregistered_name(self):
        found = lint(
            """
            def go(bus):
                bus.emit("coffee_break")
            """,
            event_kinds=EVENT_KINDS,
        )
        assert codes(found) == ["R003"]
        assert "coffee_break" in found[0].message

    def test_silent_on_registered_name(self):
        found = lint(
            """
            def go(bus):
                bus.emit("features_extracted", n=3)
            """,
            event_kinds=EVENT_KINDS,
        )
        assert found == []

    def test_skipped_without_a_registry(self):
        found = lint(
            """
            def go(bus):
                bus.emit("anything_goes")
            """,
            event_kinds=None,
        )
        assert found == []

    def test_dynamic_names_are_not_checked(self):
        found = lint(
            """
            def go(bus, kind):
                bus.emit(kind)
            """,
            event_kinds=EVENT_KINDS,
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            def go(bus):
                bus.emit("coffee_break")  # reprolint: disable=R003
            """,
            event_kinds=EVENT_KINDS,
        )
        assert found == []


# ----------------------------------------------------------------------
# R004 — eager FeatureExtractor calls outside the data plane
# ----------------------------------------------------------------------
class TestR004:
    SOURCE = """
        from repro.features.pipeline import FeatureExtractor

        def build(clips):
            fx = FeatureExtractor(grid=128)
            return fx.encode_batch(clips)
        """

    def test_fires_on_tracked_variable(self):
        found = lint(self.SOURCE)
        assert codes(found) == ["R004"]
        assert "BatchFeatureExtractor" in found[0].message

    def test_fires_on_ctor_chain(self):
        found = lint(
            """
            from repro.features.pipeline import FeatureExtractor

            def build(clips):
                return FeatureExtractor().flat_batch(clips)
            """
        )
        assert codes(found) == ["R004"]

    def test_exempt_inside_dataplane_and_features(self):
        assert lint(self.SOURCE, path="src/repro/dataplane/extract.py") == []
        assert lint(self.SOURCE, path="src/repro/features/pipeline.py") == []

    def test_exempt_outside_src(self):
        assert lint(self.SOURCE, path="tests/features/test_pipeline.py") == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            from repro.features.pipeline import FeatureExtractor

            def build(clips):
                fx = FeatureExtractor(grid=128)
                return fx.encode_batch(clips)  # reprolint: disable=R004
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R005 — mutable default arguments
# ----------------------------------------------------------------------
class TestR005:
    def test_fires_on_literal_defaults(self):
        found = lint(
            """
            def f(a=[], b={}, c=set()):
                return a, b, c
            """
        )
        assert codes(found) == ["R005", "R005", "R005"]

    def test_fires_on_np_array_default(self):
        found = lint(
            """
            import numpy as np
            def f(w=np.zeros(2)):
                return w
            """
        )
        assert codes(found) == ["R005"]

    def test_silent_on_none_sentinel(self):
        found = lint(
            """
            def f(a=None, b=(), c=0):
                return a, b, c
            """
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            def f(a=[]):  # reprolint: disable=R005
                return a
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R006 — contract coverage of public array functions
# ----------------------------------------------------------------------
class TestR006:
    MODULE = "src/repro/core/uncertainty.py"

    def test_fires_on_uncontracted_public_function(self):
        found = lint(
            """
            import numpy as np

            def score(probs: np.ndarray) -> np.ndarray:
                return probs.max(axis=1)
            """,
            path=self.MODULE,
        )
        assert codes(found) == ["R006"]
        assert "score()" in found[0].message

    def test_silent_with_contract_decorator(self):
        found = lint(
            """
            import numpy as np
            from repro.analysis.contracts import contract

            @contract(probs="f8[N,2]", returns="f8[N]")
            def score(probs: np.ndarray) -> np.ndarray:
                return probs.max(axis=1)
            """,
            path=self.MODULE,
        )
        assert found == []

    def test_only_contracted_modules(self):
        source = """
            import numpy as np

            def score(probs: np.ndarray) -> np.ndarray:
                return probs.max(axis=1)
            """
        assert lint(source, path="src/repro/viz/plots.py") == []

    def test_private_and_arrayless_functions_exempt(self):
        found = lint(
            """
            import numpy as np

            def _helper(probs: np.ndarray) -> np.ndarray:
                return probs

            def threshold() -> float:
                return 0.5
            """,
            path=self.MODULE,
        )
        assert found == []

    def test_no_contract_waiver(self):
        found = lint(
            """
            import numpy as np

            def score(probs: np.ndarray) -> np.ndarray:  # reprolint: no-contract
                return probs.max(axis=1)
            """,
            path=self.MODULE,
        )
        assert found == []


# ----------------------------------------------------------------------
# driver behaviour
# ----------------------------------------------------------------------
class TestDriver:
    def test_syntax_error_reported_as_e999(self):
        found = lint_source("def broken(:\n", path="src/repro/x.py")
        assert codes(found) == ["E999"]

    def test_blanket_disable_waives_everything(self):
        found = lint(
            """
            import numpy as np
            x = np.random.rand(3)  # reprolint: disable
            """
        )
        assert found == []

    def test_select_restricts_rules(self):
        source = """
            import numpy as np
            x = np.random.rand(3)
            def f(a=[]):
                return a
            """
        only_r005 = lint(source, select=frozenset({"R005"}))
        assert codes(only_r005) == ["R005"]

    def test_render_format(self):
        found = lint("import numpy as np\nx = np.random.rand(3)\n")
        line = found[0].render()
        assert line.startswith(f"{SRC_PATH}:2:")
        assert " R001 " in line


# ----------------------------------------------------------------------
# R007 — unguarded writes to guarded_by attributes
# ----------------------------------------------------------------------
class TestR007:
    def test_fires_on_unlocked_write_descriptor_form(self):
        found = lint(
            """
            import threading
            from repro.analysis.concurrency import guarded_by

            class Cache:
                _memory = guarded_by("_lock")

                def __init__(self):
                    self._lock = threading.RLock()
                    self._memory = {}

                def put(self, key, value):
                    self._memory[key] = value
            """
        )
        assert codes(found) == ["R007"]
        assert "_memory" in found[0].message
        assert "_lock" in found[0].message

    def test_fires_on_unlocked_mutator_comment_form(self):
        found = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._memory = {}  #: guarded_by: _lock

                def drop(self):
                    self._memory.clear()
            """
        )
        assert codes(found) == ["R007"]

    def test_silent_when_lock_held(self):
        found = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._memory = {}  #: guarded_by: _lock

                def put(self, key, value):
                    with self._lock:
                        self._memory[key] = value
            """
        )
        assert found == []

    def test_silent_in_requires_annotated_helper(self):
        found = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._memory = {}  #: guarded_by: _lock

                def _evict(self):  #: requires: _lock
                    self._memory.pop("old", None)

                def put(self, key, value):
                    with self._lock:
                        self._memory[key] = value
                        self._evict()
            """
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._memory = {}  #: guarded_by: _lock

                def racy(self):
                    self._memory.clear()  # reprolint: disable=R007
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R008 — bare acquire() without with / try-finally
# ----------------------------------------------------------------------
class TestR008:
    def test_fires_on_bare_acquire(self):
        found = lint(
            """
            import threading
            lock = threading.Lock()

            def critical():
                lock.acquire()
                do_work()
                lock.release()
            """
        )
        assert codes(found) == ["R008"]
        assert "leaks the lock" in found[0].message

    def test_silent_with_try_finally(self):
        found = lint(
            """
            import threading
            lock = threading.Lock()

            def critical():
                lock.acquire()
                try:
                    do_work()
                finally:
                    lock.release()
            """
        )
        assert found == []

    def test_scoped_to_src(self):
        found = lint(
            """
            import threading
            lock = threading.Lock()

            def critical():
                lock.acquire()
                lock.release()
            """,
            path="tests/test_something.py",
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import threading
            lock = threading.Lock()

            def probe():
                got = lock.acquire(blocking=False)  # reprolint: disable=R008
                return got
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R009 — thread spawn without join or daemon
# ----------------------------------------------------------------------
class TestR009:
    def test_fires_on_leaked_thread(self):
        found = lint(
            """
            import threading

            def spawn(work):
                thread = threading.Thread(target=work)
                thread.start()
            """
        )
        assert codes(found) == ["R009"]
        assert "outlive" in found[0].message

    def test_silent_with_daemon(self):
        found = lint(
            """
            import threading

            def spawn(work):
                threading.Thread(target=work, daemon=True).start()
            """
        )
        assert found == []

    def test_silent_with_join(self):
        found = lint(
            """
            import threading

            def spawn(work):
                threads = [threading.Thread(target=work) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            """
        )
        assert found == []

    def test_scoped_to_src(self):
        found = lint(
            """
            import threading

            def spawn(work):
                threading.Thread(target=work).start()
            """,
            path="tests/test_something.py",
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import threading

            def spawn(work):
                thread = threading.Thread(target=work)  # reprolint: disable=R009
                thread.start()
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R010 — blocking calls while holding a lock
# ----------------------------------------------------------------------
class TestR010:
    def test_fires_on_sleep_under_lock(self):
        found = lint(
            """
            import time
            import threading

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        time.sleep(0.5)
            """
        )
        assert codes(found) == ["R010"]
        assert "time.sleep" in found[0].message

    def test_fires_on_file_io_under_module_lock(self):
        found = lint(
            """
            import threading
            state_lock = threading.Lock()

            def save(path, payload):
                with state_lock:
                    path.write_text(payload)
            """
        )
        assert codes(found) == ["R010"]

    def test_fires_on_future_result_under_lock(self):
        found = lint(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self, future):
                    with self._lock:
                        return future.result()
            """
        )
        assert codes(found) == ["R010"]

    def test_silent_outside_lock(self):
        found = lint(
            """
            import time
            import threading

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def poll(self):
                    with self._lock:
                        snapshot = 1
                    time.sleep(0.5)
                    return snapshot
            """
        )
        assert found == []

    def test_silent_under_non_lock_context(self):
        found = lint(
            """
            def save(path, payload, opener):
                with opener(path) as handle:
                    handle.write_text(payload)
            """
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import time
            import threading
            pace_lock = threading.Lock()

            def pace():
                with pace_lock:
                    time.sleep(0.01)  # reprolint: disable=R010
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R011 — non-atomic check-then-act on shared mappings
# ----------------------------------------------------------------------
class TestR011:
    def test_fires_on_unlocked_check_then_act(self):
        found = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def get(self, key):
                    if key in self._entries:
                        return self._entries[key]
                    return None
            """
        )
        assert codes(found) == ["R011"]
        assert "check-then-act" in found[0].message

    def test_silent_when_locked(self):
        found = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def get(self, key):
                    with self._lock:
                        if key in self._entries:
                            return self._entries[key]
                    return None
            """
        )
        assert found == []

    def test_silent_in_requires_annotated_helper(self):
        found = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def _lookup(self, key):  #: requires: _lock
                    if key in self._entries:
                        return self._entries[key]
                    return None
            """
        )
        assert found == []

    def test_silent_when_class_owns_no_lock(self):
        found = lint(
            """
            class PlainBag:
                def __init__(self):
                    self._entries = {}

                def get(self, key):
                    if key in self._entries:
                        return self._entries[key]
                    return None
            """
        )
        assert found == []

    def test_waiver_suppresses(self):
        found = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def benign(self, key):
                    if key in self._entries:  # reprolint: disable=R011
                        return self._entries[key]
                    return None
            """
        )
        assert found == []
