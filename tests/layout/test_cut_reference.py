"""The one-pass array cut against a frozen copy of the per-window path.

``Layout.cut`` cuts every window of a lattice block in one numpy pass
over an array bucket index, and a clip carries its geometry as an
``(n, 4)`` int64 array of boxes.  The reference below is the earlier
implementation: a dict of bucket lists, one ``query_clipped`` per window
building two ``Rect`` objects per hit, and clips holding ``Rect`` lists
that the hashes, the raster and the wire codec read one by one.  Both
must give the same windows, cores, indices and boxes in the same order,
and the same keys, hashes, rasters and wire bytes.
"""

import hashlib
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import DUV_RULES, EUV_RULES, generate_layout
from repro.features import FeatureExtractor
from repro.layout import Layout, Rect, TileGrid, extract_clip_grid
from repro.layout import clip as clip_module
from repro.serve.transport.frames import decode_clips, encode_clips
from tests.litho.test_simulator_reference import _ref_rasterize

# ----------------------------------------------------------------------
# reference: the per-window Rect path, frozen
# ----------------------------------------------------------------------


def _ref_intersection(a, b):
    if not a.intersects(b):
        return None
    return Rect(max(a.x0, b.x0), max(a.y0, b.y0),
                min(a.x1, b.x1), min(a.y1, b.y1))


class _RefLayout:
    """The dict bucket index, ``query`` and ``query_clipped``."""

    def __init__(self, rects, die, bucket_nm=None):
        self.rects = list(rects)
        if bucket_nm is None:
            bucket_nm = max(64, min(die.width, die.height) // 64 or 64)
        self._bucket_nm = bucket_nm
        self._grid = {}
        for idx, rect in enumerate(self.rects):
            for key in self._buckets_of(rect):
                self._grid.setdefault(key, []).append(idx)

    def _buckets_of(self, rect):
        b = self._bucket_nm
        for bx in range(rect.x0 // b, (rect.x1 - 1) // b + 1):
            for by in range(rect.y0 // b, (rect.y1 - 1) // b + 1):
                yield (bx, by)

    def query(self, window):
        hits = set()
        for key in self._buckets_of(window):
            hits.update(self._grid.get(key, ()))
        return [self.rects[i] for i in sorted(hits)
                if self.rects[i].intersects(window)]

    def query_clipped(self, window):
        out = []
        for rect in self.query(window):
            part = _ref_intersection(rect, window)
            if part is not None:
                out.append(part.shifted(-window.x0, -window.y0))
        return out


def _ref_extract_clip_grid(ref, die, clip_size, core_margin, step,
                           drop_empty):
    """``(window, core, index, rects)`` of the eager per-window loop."""
    if step is None:
        step = clip_size - 2 * core_margin
    out, index, y = [], 0, die.y0
    while y + clip_size <= die.y1:
        x = die.x0
        while x + clip_size <= die.x1:
            window = Rect(x, y, x + clip_size, y + clip_size)
            rects = ref.query_clipped(window)
            if rects or not drop_empty:
                out.append(
                    (window, window.expanded(-core_margin), index, rects)
                )
                index += 1
            x += step
        y += step
    return out


def _ref_iter_clips(grid, ref, tile, drop_empty):
    for index, window in grid.iter_windows(tile):
        rects = ref.query_clipped(window)
        if not rects and drop_empty:
            continue
        yield window, window.expanded(-grid.core_margin), index, rects


def _ref_content_key(window, core, rects):
    local = core.shifted(-window.x0, -window.y0)
    parts = sorted((r.x0, r.y0, r.x1, r.y1) for r in rects)
    payload = f"{window.width}x{window.height}|{local.as_tuple()}|{parts!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _ref_core_geometry_hash(window, core, rects, quantum=1):
    local = core.shifted(-window.x0, -window.y0)
    clipped = []
    for rect in rects:
        part = _ref_intersection(rect, local)
        if part is not None:
            clipped.append(part)
    parts = sorted(
        (r.x0 // quantum, r.y0 // quantum, r.x1 // quantum, r.y1 // quantum)
        for r in clipped
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _ref_geometry_hash(rects, quantum=1):
    parts = sorted(
        (r.x0 // quantum, r.y0 // quantum, r.x1 // quantum, r.y1 // quantum)
        for r in rects
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _ref_encode_clips(clips, rect_lists, model, want_labels):
    windows = np.array(
        [c.window.as_tuple() for c in clips], dtype=np.int64
    ).reshape(len(clips), 4)
    cores = np.array(
        [c.core.as_tuple() for c in clips], dtype=np.int64
    ).reshape(len(clips), 4)
    counts = np.array([len(rects) for rects in rect_lists], dtype=np.int64)
    flat = [r for rects in rect_lists for r in rects]
    rects = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in flat], dtype=np.int64
    ).reshape(len(flat), 4)
    names = np.array([c.layout_name for c in clips])
    indices = np.array([c.index for c in clips], dtype=np.int64)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        windows=windows, cores=cores, counts=counts, rects=rects,
        names=names, indices=indices,
        model=np.array(model if model is not None else ""),
        want_labels=np.array(bool(want_labels)),
    )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# random chips
# ----------------------------------------------------------------------


@st.composite
def _chips(draw):
    """``(rects, die, bucket_nm, clip_size, core_margin, step)``: a die
    off the origin, often not square, with overlapping and duplicated
    rects, rects on and across window edges, rects spanning many
    buckets and rects reaching past the die."""
    clip_size = draw(st.sampled_from([40, 64, 90]))
    core_margin = draw(st.integers(1, (clip_size - 1) // 2))
    step = draw(st.none() | st.integers(1, clip_size + 30))
    pitch = step if step is not None else clip_size - 2 * core_margin
    x0, y0 = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    width = draw(st.integers(clip_size // 2, clip_size + 5 * pitch + 10))
    height = draw(st.integers(clip_size // 2, clip_size + 5 * pitch + 10))
    die = Rect(x0, y0, x0 + width, y0 + height)

    def span(lo, size):
        # lattice window edges, so rects touch and end on them
        edges = [lo + k * pitch + d for k in range(7) for d in (0, clip_size)]
        coord = st.sampled_from(edges) | st.integers(lo - 40, lo + size + 40)
        a, b = sorted((draw(coord), draw(coord)))
        return a, b if b > a else a + draw(st.integers(1, size + 80))

    rects = []
    for _ in range(draw(st.integers(0, 25))):
        (ax, bx), (ay, by) = span(x0, width), span(y0, height)
        rects.append(Rect(ax, ay, bx, by))
    if rects and draw(st.booleans()):
        rects.append(rects[0])
    bucket_nm = draw(st.sampled_from([None, 8, 16, 64]))
    return rects, die, bucket_nm, clip_size, core_margin, step


def _as_rows(clip):
    return (clip.window, clip.core, clip.index,
            [tuple(box) for box in clip.boxes.tolist()])


def _ref_rows(window, core, index, rects):
    return window, core, index, [r.as_tuple() for r in rects]


def _layouts(chip):
    rects, die, bucket_nm, *_ = chip
    return (Layout(rects, die=die, bucket_nm=bucket_nm, name="chip"),
            _RefLayout(rects, die, bucket_nm))


# ----------------------------------------------------------------------
# the cut
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_chips(), st.integers(1, 4), st.booleans())
def test_tile_cut_equals_reference(chip, tile_clips, drop_empty):
    layout, ref = _layouts(chip)
    _, die, _, clip_size, core_margin, step = chip
    grid = TileGrid(die, clip_size, core_margin, step, tile_clips)
    for tile in grid.tiles():
        got = [_as_rows(c) for c in grid.iter_clips(layout, tile, drop_empty)]
        want = [_ref_rows(*c)
                for c in _ref_iter_clips(grid, ref, tile, drop_empty)]
        assert got == want


@settings(max_examples=150, deadline=None)
@given(_chips(), st.sampled_from([1, 2, 3, 7, 1024]), st.booleans())
def test_eager_grid_equals_reference(chip, block_windows, drop_empty):
    layout, ref = _layouts(chip)
    _, die, _, clip_size, core_margin, step = chip
    with mock.patch.object(clip_module, "_BLOCK_WINDOWS", block_windows):
        clips = extract_clip_grid(
            layout, clip_size, core_margin, step, drop_empty=drop_empty
        )
    want = _ref_extract_clip_grid(
        ref, die, clip_size, core_margin, step, drop_empty
    )
    assert [_as_rows(c) for c in clips] == [_ref_rows(*c) for c in want]
    assert {c.layout_name for c in clips} <= {"chip"}


@settings(max_examples=100, deadline=None)
@given(_chips(), st.data())
def test_query_equals_reference(chip, data):
    layout, ref = _layouts(chip)
    die = chip[1]
    for _ in range(5):
        x = data.draw(st.integers(die.x0 - 100, die.x1 + 50))
        y = data.draw(st.integers(die.y0 - 100, die.y1 + 50))
        window = Rect(x, y, x + data.draw(st.integers(1, 200)),
                      y + data.draw(st.integers(1, 200)))
        assert layout.query(window) == ref.query(window)


# ----------------------------------------------------------------------
# what reads the boxes
# ----------------------------------------------------------------------


def _cut_with_reference(chip):
    """Clips of the eager grid paired with their reference rect lists."""
    layout, ref = _layouts(chip)
    _, die, _, clip_size, core_margin, step = chip
    clips = extract_clip_grid(layout, clip_size, core_margin, step,
                              drop_empty=False)
    want = _ref_extract_clip_grid(ref, die, clip_size, core_margin, step,
                                  drop_empty=False)
    return clips, [rects for *_, rects in want]


@settings(max_examples=100, deadline=None)
@given(_chips(), st.sampled_from([1, 2, 3, 7]))
def test_keys_and_hashes_equal_reference(chip, quantum):
    clips, rect_lists = _cut_with_reference(chip)
    for clip, rects in zip(clips, rect_lists):
        assert clip.content_key() == _ref_content_key(
            clip.window, clip.core, rects
        )
        assert clip.geometry_hash(quantum) == _ref_geometry_hash(
            rects, quantum
        )
        assert clip.core_geometry_hash(quantum) == _ref_core_geometry_hash(
            clip.window, clip.core, rects, quantum
        )


@settings(max_examples=25, deadline=None)
@given(_chips())
def test_raster_stack_equals_reference(chip):
    clips, rect_lists = _cut_with_reference(chip)
    stack = FeatureExtractor(grid=96).raster_stack(clips)
    for image, clip, rects in zip(stack, clips, rect_lists):
        assert image.tobytes() == _ref_rasterize(
            rects, clip.size, 96
        ).tobytes()


@settings(max_examples=100, deadline=None)
@given(_chips(), st.booleans())
def test_wire_bytes_equal_reference(chip, want_labels):
    clips, rect_lists = _cut_with_reference(chip)
    payload = encode_clips(clips, "m", want_labels)
    assert payload == _ref_encode_clips(clips, rect_lists, "m", want_labels)
    decoded, _, _ = decode_clips(payload)
    assert [_as_rows(c) for c in decoded] == [_as_rows(c) for c in clips]


def test_synthetic_chips_equal_reference():
    """The generator's chips, as the scans and benchmarks cut them."""
    for rules, seed in ((DUV_RULES, 0), (EUV_RULES, 7)):
        chip = generate_layout(rules, 6, 5, stress_probability=0.4,
                               seed=seed)
        ref = _RefLayout(chip.rects, chip.die)
        for drop_empty in (True, False):
            clips = extract_clip_grid(chip, rules.clip_size,
                                      rules.core_margin, drop_empty=drop_empty)
            want = _ref_extract_clip_grid(
                ref, chip.die, rules.clip_size, rules.core_margin, None,
                drop_empty,
            )
            assert [_as_rows(c) for c in clips] == [
                _ref_rows(*c) for c in want
            ]
        grid = TileGrid.for_layout(chip, rules.clip_size, rules.core_margin,
                                   tile_clips=2)
        for tile in grid.tiles():
            assert [_as_rows(c) for c in grid.iter_clips(chip, tile)] == [
                _ref_rows(*c) for c in _ref_iter_clips(grid, ref, tile, True)
            ]
