"""The litho simulator against a frozen copy of its per-corner path.

``LithoSimulator.simulate`` does each clip's corner-independent work once:
the target-side morphology, one amplitude per distinct defocus, a
memoized PSF spectrum, and no component statistics for empty regions.
It decides the EPE region by dilating the printed contour with an
integer disk, does its morphology by shifting slices of a padded copy,
and rasterizes a stack of clips in one vectorized pass that sums each
pixel's coverage terms in rect order.  The reference below is the earlier
implementation, which redid all of it at every corner: the raster
painted through ``np.ix_``/``np.outer``/``np.clip``, the PSF kernel and
its FFT rebuilt per call, four scipy binary-morphology calls and a
distance transform per corner, and full ``label`` / ``sum_labels`` /
``center_of_mass`` on every region.  Both must return exactly equal
results.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.data.synth import DUV_RULES, EUV_RULES, generate_layout
from repro.layout import Clip, Rect, rasterize, rasterize_stack
from repro.layout.clip import extract_clip_grid
from repro.litho import (
    Defect,
    LithoResult,
    LithoSimulator,
    ProcessCorner,
    analyze_process_window,
    edge_placement_error,
    find_defects,
)

# ----------------------------------------------------------------------
# reference: the per-corner path, frozen
# ----------------------------------------------------------------------


def _ref_rasterize(rects, window_size, grid):
    """The antialiased ``rasterize``, painting through ``np.ix_``."""
    width_nm, height_nm = window_size
    image = np.zeros((grid, grid), dtype=np.float64)
    px_w = width_nm / grid
    px_h = height_nm / grid
    for rect in rects:
        col0 = max(int(np.floor(rect.x0 / px_w)), 0)
        col1 = min(int(np.ceil(rect.x1 / px_w)), grid)
        row0 = max(int(np.floor(rect.y0 / px_h)), 0)
        row1 = min(int(np.ceil(rect.y1 / px_h)), grid)
        if col0 >= col1 or row0 >= row1:
            continue
        cols = np.arange(col0, col1)
        rows = np.arange(row0, row1)
        x_lo = np.maximum(cols * px_w, rect.x0)
        x_hi = np.minimum((cols + 1) * px_w, rect.x1)
        frac_x = np.clip(x_hi - x_lo, 0.0, px_w) / px_w
        y_lo = np.maximum(rows * px_h, rect.y0)
        y_hi = np.minimum((rows + 1) * px_h, rect.y1)
        frac_y = np.clip(y_hi - y_lo, 0.0, px_h) / px_h
        image[np.ix_(rows, cols)] += np.outer(frac_y, frac_x)
    return np.clip(image, 0.0, 1.0)


def _ref_aerial_image(optical, mask, pixel_nm, defocus_nm, dose):
    kernel = optical.psf_kernel(pixel_nm, defocus_nm)
    pad = kernel.shape[0] // 2
    image = np.pad(mask.astype(np.float64), pad, mode="reflect")
    out_h = image.shape[0] - kernel.shape[0] + 1
    out_w = image.shape[1] - kernel.shape[1] + 1
    shape = (
        image.shape[0] + kernel.shape[0] - 1,
        image.shape[1] + kernel.shape[1] - 1,
    )
    f_image = np.fft.rfft2(image, shape)
    f_kernel = np.fft.rfft2(kernel, shape)
    full = np.fft.irfft2(f_image * f_kernel, shape)
    start_h = kernel.shape[0] - 1
    start_w = kernel.shape[1] - 1
    amplitude = full[start_h : start_h + out_h, start_w : start_w + out_w]
    return dose * amplitude**2


def _ref_interior(mask, margin_px):
    if margin_px <= 0:
        return mask
    structure = np.ones((2 * margin_px + 1, 2 * margin_px + 1), dtype=bool)
    return ndimage.binary_erosion(mask, structure=structure)


def _ref_exterior(mask, margin_px):
    if margin_px <= 0:
        return mask
    structure = np.ones((2 * margin_px + 1, 2 * margin_px + 1), dtype=bool)
    return ndimage.binary_dilation(mask, structure=structure)


def _ref_edge_placement_error(target, printed):
    target = target.astype(bool)
    printed = printed.astype(bool)
    target_edge = target ^ ndimage.binary_erosion(target)
    printed_edge = printed ^ ndimage.binary_erosion(printed)
    field = np.zeros(target.shape, dtype=np.float64)
    if not target_edge.any():
        return field
    if not printed_edge.any():
        field[target_edge] = float(max(target.shape))
        return field
    distance = ndimage.distance_transform_edt(~printed_edge)
    field[target_edge] = distance[target_edge]
    return field


def _ref_component_defects(region, kind, min_defect_px, epe_field=None):
    labels, count = ndimage.label(region)
    defects = []
    if count == 0:
        return defects
    sizes = ndimage.sum_labels(region, labels, index=np.arange(1, count + 1))
    centers = ndimage.center_of_mass(region, labels, np.arange(1, count + 1))
    for label, size, (row, col) in zip(range(1, count + 1), sizes, centers):
        if size >= min_defect_px:
            # The EPE severity changed with the per-clip simulator: it was
            # read at the rounded centre of mass, which for a thin or bent
            # component often lies off it, where the EPE field is 0.  It
            # is now the largest EPE over the component's own pixels.
            if epe_field is not None:
                size = epe_field[labels == label].max()
            defects.append(
                Defect(kind, int(round(row)), int(round(col)), float(size))
            )
    return defects


def _ref_find_defects(
    target, printed, core, epe_tolerance_px, morph_margin_px, min_defect_px
):
    row0, col0, row1, col1 = core
    target = target.astype(bool)
    printed = printed.astype(bool)
    core_mask = np.zeros(target.shape, dtype=bool)
    core_mask[row0:row1, col0:col1] = True
    defects = []
    pinch_region = _ref_interior(target, morph_margin_px) & ~printed & core_mask
    defects.extend(_ref_component_defects(pinch_region, "pinch", min_defect_px))
    bridge_region = printed & ~_ref_exterior(target, morph_margin_px) & core_mask
    defects.extend(
        _ref_component_defects(bridge_region, "bridge", min_defect_px)
    )
    epe_field = _ref_edge_placement_error(target, printed)
    epe_region = (epe_field > epe_tolerance_px) & core_mask
    defects.extend(
        _ref_component_defects(epe_region, "epe", min_defect_px, epe_field)
    )
    return defects


def _ref_core_bounds_px(grid, clip):
    width_nm, height_nm = clip.size
    core = clip.core_local()
    row0 = int(np.floor(core.y0 / height_nm * grid))
    row1 = int(np.ceil(core.y1 / height_nm * grid))
    col0 = int(np.floor(core.x0 / width_nm * grid))
    col1 = int(np.ceil(core.x1 / width_nm * grid))
    return row0, col0, row1, col1


def _ref_printed(sim, clip):
    """``(target, core, [(corner, printed), ...])`` of the reference."""
    width_nm, _ = clip.size
    pixel_nm = width_nm / sim.grid
    mask = _ref_rasterize(clip.rects, clip.size, sim.grid)
    printed = [
        (
            corner,
            sim.resist.develop(
                _ref_aerial_image(
                    sim.optical, mask, pixel_nm, corner.defocus_nm, corner.dose
                )
            ),
        )
        for corner in sim.corners
    ]
    return mask >= 0.5, _ref_core_bounds_px(sim.grid, clip), printed


def _ref_simulate(sim, clip):
    target, core, printed = _ref_printed(sim, clip)
    all_defects, bad_corners = [], []
    for corner, image in printed:
        defects = _ref_find_defects(
            target,
            image,
            core,
            sim.epe_tolerance_px,
            sim.morph_margin_px,
            sim.min_defect_px,
        )
        if defects:
            all_defects.extend(defects)
            bad_corners.append(corner.name)
    return LithoResult(
        hotspot=bool(all_defects), defects=all_defects, corner_names=bad_corners
    )


# ----------------------------------------------------------------------
# the sample: every distinct clip of two small seeded chips, plus an
# empty clip
# ----------------------------------------------------------------------


def _distinct_clips(rules, seed, target_ratio):
    layout = generate_layout(
        rules, 5, 5, stress_probability=0.4, seed=seed,
        target_ratio=target_ratio,
    )
    clips = extract_clip_grid(
        layout, rules.clip_size, rules.core_margin, drop_empty=False
    )
    distinct = {clip.content_key(): clip for clip in clips}
    window = Rect(0, 0, rules.clip_size, rules.clip_size)
    empty = Clip(window, window.expanded(-rules.core_margin), rects=[])
    return list(distinct.values()) + [empty]


CHIPS = {
    "duv": (28, DUV_RULES, 3, 0.3),
    "euv": (7, EUV_RULES, 5, 0.3),
}

SIMULATORS = {
    "default": {},
    "tol1.5": {"epe_tolerance_px": 1.5},
    "tol-sqrt5": {"epe_tolerance_px": math.sqrt(5)},
    "tol2.5": {"epe_tolerance_px": 2.5},
    "margin1": {"morph_margin_px": 1},
    "margin3": {"morph_margin_px": 3},
    "custom": {
        "morph_margin_px": 0,
        "min_defect_px": 1,
        "corners": (
            ProcessCorner(1.0, 0.0, "focus"),
            ProcessCorner(1.08, 40.0, "hot-blur"),
            ProcessCorner(1.08, 0.0, "hot"),
            ProcessCorner(0.92, 40.0, "cold-blur"),
        ),
    },
}


@pytest.fixture(scope="module", params=sorted(CHIPS))
def chip(request):
    tech_nm, rules, seed, ratio = CHIPS[request.param]
    return tech_nm, _distinct_clips(rules, seed, ratio)


@pytest.fixture(scope="module", params=sorted(SIMULATORS))
def runs(request, chip):
    """``(simulator, clips, results, reference results)``."""
    tech_nm, clips = chip
    sim = LithoSimulator.for_tech(tech_nm, grid=96, **SIMULATORS[request.param])
    results = [sim.simulate(clip) for clip in clips]
    return sim, clips, results, [_ref_simulate(sim, clip) for clip in clips]


class TestAgainstReference:
    def test_sample_covers_the_cases(self, runs):
        _, clips, _, expected = runs
        assert not clips[-1].rects  # the empty clip
        assert any(len(r.corner_names) >= 2 for r in expected)
        assert any(not r.hotspot for r in expected)

    def test_simulate_equals_reference(self, runs):
        _, clips, results, expected = runs
        for clip, result, reference in zip(clips, results, expected):
            assert result == reference, clip.content_key()

    def test_find_defects_and_epe_equal_reference(self, runs):
        sim, clips, _, _ = runs
        settings = (sim.epe_tolerance_px, sim.morph_margin_px, sim.min_defect_px)
        for clip in clips[::4]:
            target, core, printed = _ref_printed(sim, clip)
            for _, image in printed:
                np.testing.assert_array_equal(
                    edge_placement_error(target, image),
                    _ref_edge_placement_error(target, image),
                )
                assert find_defects(
                    target, image, core, *settings
                ) == _ref_find_defects(target, image, core, *settings)

    def test_epe_severity_exceeds_tolerance(self, runs):
        sim, _, results, _ = runs
        epe = [d for r in results for d in r.defects if d.kind == "epe"]
        assert epe
        assert all(d.severity > sim.epe_tolerance_px for d in epe)


def _stray_rects(width, height):
    """Rects that cross the window's edges or lie wholly outside it."""
    return [
        Rect(-70, -30, 45, 20),
        Rect(width - 13, height // 3, width + 90, height // 3 + 7),
        Rect(width // 2, -9, width // 2 + 1, height + 9),
        Rect(-50, -50, -10, -10),
        Rect(width, 0, width + 40, height),
    ]


#: a Z-shaped jog whose connector overlaps both bodies, and three
#: rects with different sub-pixel edges stacked on one spot: their
#: coverage sums pass 1 before the clip, and the edge pixels sum three
#: distinct fractions, whose float sum depends on the order of terms
JOG = [
    Rect(100, 300, 640, 380),
    Rect(560, 300, 640, 900),
    Rect(560, 820, 1100, 900),
    Rect(203, 611, 259, 707),
    Rect(205, 613, 262, 709),
    Rect(201, 617, 257, 703),
]

GRIDS = [96, 64, 37, 97]


@pytest.mark.parametrize("grid", GRIDS)
def test_raster_equals_reference(chip, grid):
    _, clips = chip
    size = clips[0].size
    for rects in [clip.rects for clip in clips] + [_stray_rects(*size)]:
        assert (
            rasterize(rects, size, grid).tobytes()
            == _ref_rasterize(rects, size, grid).tobytes()
        )


@pytest.fixture(scope="module")
def mixed_stack():
    """``(rect lists, window sizes)`` of one stack that spans several
    kernel passes: every distinct clip of a DUV chip (1200 nm windows)
    and of an EUV chip (640 nm), the jog, stray rects around a
    non-square window, and an empty clip."""
    clips = _distinct_clips(DUV_RULES, 3, 0.3) + _distinct_clips(
        EUV_RULES, 5, 0.3
    )
    assert {clip.size for clip in clips} == {(1200, 1200), (640, 640)}
    rect_lists = [clip.rects for clip in clips] + [
        JOG, _stray_rects(1000, 700) + JOG, [],
    ]
    sizes = [clip.size for clip in clips] + [
        (1200, 1200), (1000, 700), (1200, 1200),
    ]
    return rect_lists, sizes


@pytest.mark.parametrize("grid", GRIDS)
def test_raster_stack_equals_reference(mixed_stack, grid):
    rect_lists, sizes = mixed_stack
    stack = rasterize_stack(rect_lists, sizes, grid)
    assert stack.shape == (len(rect_lists), grid, grid)
    for image, rects, size in zip(stack, rect_lists, sizes):
        assert image.tobytes() == _ref_rasterize(rects, size, grid).tobytes()
    assert stack[-3].max() == 1.0  # the stacked rects, clipped


def test_rasterize_equals_its_stack_slice(mixed_stack):
    rect_lists, sizes = mixed_stack
    stack = rasterize_stack(rect_lists, sizes, 96)
    for image, rects, size in zip(stack, rect_lists, sizes):
        assert rasterize(rects, size, 96).tobytes() == image.tobytes()


@st.composite
def _clip_geometry(draw):
    """Random rects around a random window: overlapping, crossing its
    edges or lying outside it."""
    width, height = draw(st.integers(1, 1500)), draw(st.integers(1, 1500))
    rects = []
    for _ in range(draw(st.integers(0, 10))):
        x0 = draw(st.integers(-width // 2, width))
        y0 = draw(st.integers(-height // 2, height))
        rects.append(
            Rect(
                x0, y0,
                x0 + draw(st.integers(1, width)),
                y0 + draw(st.integers(1, height)),
            )
        )
    return rects, (width, height)


@settings(max_examples=100, deadline=None)
@given(st.lists(_clip_geometry(), max_size=20), st.integers(1, 128))
def test_random_rect_stacks_equal_reference(geometry, grid):
    stack = rasterize_stack(
        [rects for rects, _ in geometry], [size for _, size in geometry], grid
    )
    for image, (rects, size) in zip(stack, geometry):
        assert image.tobytes() == _ref_rasterize(rects, size, grid).tobytes()


def _random_masks(count, seed):
    """``(target, printed, core)`` on 5-60 px images: random rectangles,
    some crossing the border, printed as other rectangles, a shifted
    copy or a speckled copy of the target.  One printed image is empty
    and one all set; so is one target."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        h, w = (int(n) for n in rng.integers(5, 61, size=2))
        target, printed = np.zeros((2, h, w), dtype=bool)
        for mask in (target, printed):
            for _ in range(rng.integers(1, 6)):
                row, col = rng.integers(-4, (h, w))
                tall, wide = rng.integers(5, 20, size=2)
                mask[max(row, 0) : row + tall, max(col, 0) : col + wide] = True
        if i % 3 == 1:
            printed = np.roll(target, rng.integers(-3, 4, size=2), axis=(0, 1))
        elif i % 3 == 2:
            printed = target ^ (rng.random((h, w)) < 0.08)
        if i in (0, 1):
            printed[:] = i
        if i in (2, 3):
            target[:] = i - 2
        row0, col0 = (int(n) for n in rng.integers(0, (h // 2, w // 2)))
        row1 = int(rng.integers(row0 + 1, h + 1))
        col1 = int(rng.integers(col0 + 1, w + 1))
        yield target, printed, (row0, col0, row1, col1)


def test_random_masks_equal_reference():
    """Tolerances on and between the disk's radii, including 0 and one
    beyond every distance in the image; margins 0-3."""
    for i, (target, printed, core) in enumerate(_random_masks(300, seed=21)):
        np.testing.assert_array_equal(
            edge_placement_error(target, printed),
            _ref_edge_placement_error(target, printed),
        )
        margin, min_px = i % 4, 1 + i % 3
        for tol in (0.0, 1.5, 2.0, math.sqrt(5), 4.2, math.hypot(*target.shape)):
            args = (target, printed, core, tol, margin, min_px)
            assert find_defects(*args) == _ref_find_defects(*args), (i, tol)


def test_process_window_equals_per_point_verdicts(chip):
    tech_nm, clips = chip
    sim = LithoSimulator.for_tech(tech_nm, grid=96)
    verdicts = [sim.is_hotspot(clip) for clip in clips]
    pair = [clips[verdicts.index(True)], clips[verdicts.index(False)]]
    for clip in pair:
        window = analyze_process_window(
            sim, clip, dose_steps=4, defocus_steps=3
        )
        for i, dose in enumerate(window.doses):
            for j, defocus in enumerate(window.defocus_nm):
                point = LithoSimulator(
                    optical=sim.optical,
                    resist=sim.resist,
                    corners=(ProcessCorner(float(dose), float(defocus)),),
                    grid=sim.grid,
                )
                assert window.passes[i, j] == (not point.is_hotspot(clip))
