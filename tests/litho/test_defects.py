"""Tests for resist, defect detection, and the litho simulator."""

import numpy as np
import pytest

from repro.layout import Clip, Rect
from repro.litho import (
    LithoLabeler,
    LithoSimulator,
    ProcessCorner,
    ThresholdResist,
    default_corners,
    edge_placement_error,
    find_defects,
)


def make_clip(rects, size=1200, margin=300, idx=0):
    window = Rect(0, 0, size, size)
    return Clip(window, window.expanded(-margin), rects=rects, index=idx)


# each would silently break the verdict: a negative tolerance flags the
# whole core (an empty clip is a hotspot), NaN or infinity turns the EPE
# check off, and a negative margin reads as 0
BAD_SETTINGS = [
    ("epe_tolerance_px", -1.0),
    ("epe_tolerance_px", float("nan")),
    ("epe_tolerance_px", float("inf")),
    ("morph_margin_px", -1),
]


class TestThresholdResist:
    def test_develop_thresholds(self):
        resist = ThresholdResist(threshold=0.5)
        intensity = np.array([[0.1, 0.5], [0.7, 0.49]])
        np.testing.assert_array_equal(
            resist.develop(intensity), [[False, True], [True, False]]
        )

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ThresholdResist(threshold=0.0)
        with pytest.raises(ValueError):
            ThresholdResist(threshold=2.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ThresholdResist().develop(np.zeros(5))

    def test_contour_offset_sign(self):
        resist = ThresholdResist(threshold=0.4)
        offsets = resist.contour_offset(np.array([[0.3, 0.5]]))
        assert offsets[0, 0] < 0 < offsets[0, 1]


class TestEdgePlacementError:
    def test_perfect_print_zero_epe(self):
        target = np.zeros((20, 20), dtype=bool)
        target[5:15, 5:15] = True
        field = edge_placement_error(target, target.copy())
        np.testing.assert_allclose(field, 0.0)

    def test_uniform_shrink_measured(self):
        target = np.zeros((20, 20), dtype=bool)
        target[5:15, 5:15] = True
        printed = np.zeros((20, 20), dtype=bool)
        printed[7:13, 7:13] = True  # shrunk by 2 px on each side
        field = edge_placement_error(target, printed)
        # edge pixels of the target should be ~2 px from the printed edge
        assert field.max() >= 2.0
        assert field[field > 0].min() >= 1.0

    def test_nothing_printed_max_epe(self):
        target = np.zeros((10, 10), dtype=bool)
        target[4:6, 4:6] = True
        field = edge_placement_error(target, np.zeros((10, 10), dtype=bool))
        assert field.max() == 10.0

    def test_empty_target_zero_field(self):
        field = edge_placement_error(
            np.zeros((8, 8), dtype=bool), np.ones((8, 8), dtype=bool)
        )
        np.testing.assert_allclose(field, 0.0)


class TestFindDefects:
    def _core(self, shape):
        return (2, 2, shape[0] - 2, shape[1] - 2)

    def test_no_defects_on_perfect_print(self):
        target = np.zeros((32, 32), dtype=bool)
        target[8:24, 8:24] = True
        assert find_defects(target, target.copy(), self._core(target.shape)) == []

    def test_pinch_detected(self):
        target = np.zeros((32, 32), dtype=bool)
        target[8:24, 8:24] = True
        printed = target.copy()
        printed[14:18, 8:24] = False  # feature broken in the middle
        defects = find_defects(target, printed, self._core(target.shape))
        assert any(d.kind == "pinch" for d in defects)

    def test_bridge_detected(self):
        target = np.zeros((32, 32), dtype=bool)
        target[4:12, 4:28] = True
        target[20:28, 4:28] = True
        printed = target.copy()
        printed[12:20, 14:18] = True  # resist connecting the two lines
        defects = find_defects(target, printed, self._core(target.shape))
        assert any(d.kind == "bridge" for d in defects)

    def test_defect_outside_core_ignored(self):
        target = np.zeros((32, 32), dtype=bool)
        target[0:32, 4:28] = True
        printed = target.copy()
        printed[0:1, 4:28] = False  # pinch at the very top margin
        defects = find_defects(target, printed, (8, 8, 24, 24))
        assert defects == []

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            find_defects(
                np.zeros((8, 8), dtype=bool),
                np.zeros((9, 9), dtype=bool),
                (1, 1, 7, 7),
            )

    def test_bad_core_raises(self):
        target = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ValueError, match="core"):
            find_defects(target, target, (0, 0, 9, 8))

    @pytest.mark.parametrize("name, value", BAD_SETTINGS)
    def test_rejects_settings_that_break_the_verdict(self, name, value):
        target = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ValueError, match=name):
            find_defects(target, target, (1, 1, 7, 7), **{name: value})

    def test_zero_tolerance_and_margin_accepted(self):
        target = np.zeros((8, 8), dtype=bool)
        target[2:6, 2:6] = True
        assert find_defects(
            target, target, (1, 1, 7, 7), epe_tolerance_px=0.0,
            morph_margin_px=0,
        ) == []

    def test_epe_severity_read_off_the_component(self):
        """An L-shaped EPE component's centre of mass lies off the
        component, where the EPE field is 0: the severity is the
        component's largest EPE, not the field at its centroid."""
        target = np.zeros((40, 40), dtype=bool)
        target[10:30, 10:30] = True
        printed = target.copy()
        printed[10:14, 10:22] = False  # pulled back along the top edge
        printed[10:22, 10:14] = False  # and along the left edge
        field = edge_placement_error(target, printed)
        defects = find_defects(target, printed, (2, 2, 38, 38))
        [epe] = [d for d in defects if d.kind == "epe"]
        assert field[epe.row, epe.col] == 0.0
        assert epe.severity == field.max() == pytest.approx(np.hypot(4, 4))

    def test_pinch_severity_is_area(self):
        target = np.zeros((32, 32), dtype=bool)
        target[8:24, 8:24] = True
        printed = target.copy()
        printed[14:17, 12:20] = False  # 3 x 8 hole well inside
        [pinch] = [
            d for d in find_defects(target, printed, self._core(target.shape))
            if d.kind == "pinch"
        ]
        assert pinch.severity == 24.0

    def test_min_defect_px_filters_noise(self):
        target = np.zeros((32, 32), dtype=bool)
        target[8:24, 8:24] = True
        printed = target.copy()
        printed[15, 15] = False  # single-pixel speck well inside
        defects = find_defects(
            target, printed, self._core(target.shape), min_defect_px=4
        )
        assert all(d.kind != "pinch" for d in defects)


class TestProcessCorner:
    def test_default_corners_include_nominal(self):
        corners = default_corners()
        assert corners[0].name == "nominal"
        assert len(corners) == 4

    def test_rejects_zero_dose(self):
        with pytest.raises(ValueError):
            ProcessCorner(dose=0.0)


class TestLithoSimulator:
    def test_wide_line_prints_clean(self):
        sim = LithoSimulator.for_tech(28, grid=96)
        clip = make_clip([Rect(100, 550, 1100, 650)])
        result = sim.simulate(clip)
        assert not result.hotspot
        assert result.defect_count == 0

    def test_narrow_neck_is_hotspot(self):
        sim = LithoSimulator.for_tech(28, grid=96)
        clip = make_clip(
            [
                Rect(100, 540, 550, 660),
                Rect(650, 540, 1100, 660),
                Rect(550, 580, 650, 620),  # 40 nm neck, below ~50 nm CD
            ]
        )
        result = sim.simulate(clip)
        assert result.hotspot
        assert result.defect_count > 0
        assert result.corner_names  # at least one failing corner recorded

    def test_tight_gap_is_hotspot(self):
        sim = LithoSimulator.for_tech(28, grid=96)
        clip = make_clip(
            [Rect(100, 450, 1100, 590), Rect(100, 610, 1100, 750)]  # 20 nm gap
        )
        assert sim.simulate(clip).hotspot

    def test_euv_critical_dimension_smaller(self):
        """A 30 nm line is hopeless in DUV but fine in EUV."""
        window = Rect(0, 0, 640, 640)
        clip = Clip(window, window.expanded(-160),
                    rects=[Rect(50, 305, 590, 335)], index=0)
        assert not LithoSimulator.for_tech(7, grid=96).simulate(clip).hotspot
        assert LithoSimulator.for_tech(28, grid=96).simulate(clip).hotspot

    def test_deterministic(self):
        sim = LithoSimulator.for_tech(28, grid=96)
        clip = make_clip([Rect(100, 540, 1100, 590)])
        assert sim.simulate(clip).hotspot == sim.simulate(clip).hotspot

    def test_for_tech_picks_model(self):
        assert LithoSimulator.for_tech(7).optical.wavelength_nm == 13.5
        assert LithoSimulator.for_tech(28).optical.wavelength_nm == 193.0

    def test_rejects_no_corners(self):
        with pytest.raises(ValueError):
            LithoSimulator(corners=())

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            LithoSimulator(grid=0)

    @pytest.mark.parametrize("name, value", BAD_SETTINGS)
    def test_rejects_defect_settings_that_break_the_verdict(self, name, value):
        with pytest.raises(ValueError, match=name):
            LithoSimulator.for_tech(28, **{name: value})


class TestLithoLabeler:
    def _labeler(self):
        return LithoLabeler(LithoSimulator.for_tech(28, grid=96))

    def test_counts_unique_queries(self):
        labeler = self._labeler()
        clip_a = make_clip([Rect(100, 550, 1100, 650)], idx=0)
        clip_b = make_clip([Rect(100, 450, 1100, 590),
                            Rect(100, 610, 1100, 750)], idx=1)
        labeler.label(clip_a)
        labeler.label(clip_b)
        labeler.label(clip_a)  # cached, free
        assert labeler.query_count == 2

    def test_labels_binary(self):
        labeler = self._labeler()
        clean = make_clip([Rect(100, 550, 1100, 650)], idx=0)
        dirty = make_clip([Rect(100, 450, 1100, 590),
                           Rect(100, 610, 1100, 750)], idx=1)
        assert labeler.label(clean) == 0
        assert labeler.label(dirty) == 1

    def test_label_many(self):
        labeler = self._labeler()
        clips = [
            make_clip([Rect(100, 550 + 10 * i, 1100, 650 + 10 * i)], idx=i)
            for i in range(3)
        ]
        labels = labeler.label_many(clips)
        assert labels == [0, 0, 0]
        assert labeler.query_count == 3

    def test_runtime_model(self):
        labeler = self._labeler()
        labeler.label(make_clip([Rect(100, 550, 1100, 650)], idx=0))
        assert labeler.simulated_seconds == pytest.approx(10.0)

    def test_cache_keyed_by_geometry_not_identity(self):
        """Regression: equal geometry from *different* Clip instances
        (different indices, no index at all) shares one cached verdict —
        the cache is content-addressed, not object/index-addressed."""
        labeler = self._labeler()
        rects = [Rect(100, 550, 1100, 650)]
        first = make_clip(list(rects), idx=0)
        twin = make_clip(list(rects), idx=7)       # other index
        unindexed = make_clip(list(rects), idx=-1)  # no index assigned
        assert labeler.label(first) == labeler.label(twin)
        assert labeler.label(unindexed) == labeler.label(first)
        assert labeler.query_count == 1
        assert labeler.is_cached(twin)

    def test_label_batch_dedupes_and_reports(self):
        from repro.engine import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        labeler = LithoLabeler(
            LithoSimulator.for_tech(28, grid=96), bus=bus
        )
        base = make_clip([Rect(100, 550, 1100, 650)], idx=0)
        other = make_clip([Rect(100, 500, 1100, 700)], idx=1)
        dup = make_clip([Rect(100, 550, 1100, 650)], idx=2)  # == base
        labeler.label(base)  # warm one entry
        labels = labeler.label_batch([base, other, dup, other])
        assert labels[0] == labels[2] == labeler.label(base)
        assert labeler.query_count == 2  # base + other, dup was free
        [event] = log.of_kind("labels_computed")
        assert event.payload["n_clips"] == 4
        assert event.payload["cache_hits"] == 2   # base + its duplicate
        assert event.payload["cache_misses"] == 1  # other (deduped twice)
        assert event.payload["deduped"] == 1
        assert event.payload["simulated_seconds"] == 10.0

    def test_label_batch_over_thread_pool_matches_serial(self):
        """Chunks of the real simulator run on pool threads: verdicts,
        their order and the meter equal the serial path's."""
        clips = [  # lines 20..130 nm wide: the narrow ones fail
            make_clip([Rect(100, 590 - 5 * i, 1100, 610 + 5 * i)], idx=i)
            for i in range(12)
        ]
        serial = self._labeler()
        pooled = self._labeler()
        expected = serial.label_batch(clips, chunk_size=4)
        labels = pooled.label_batch(clips, chunk_size=4, workers=2)
        assert labels == expected
        assert 0 < sum(expected) < len(clips)
        assert pooled.query_count == serial.query_count == len(clips)

    def test_reset(self):
        labeler = self._labeler()
        labeler.label(make_clip([Rect(100, 550, 1100, 650)], idx=0))
        labeler.reset()
        assert labeler.query_count == 0


class TestLithoBudget:
    def _labeler(self, max_queries):
        return LithoLabeler(
            LithoSimulator.for_tech(28, grid=96), max_queries=max_queries
        )

    def _clips(self, n):
        return [
            make_clip([Rect(100, 500 + 10 * i, 1100, 650 + 10 * i)], idx=i)
            for i in range(n)
        ]

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_queries"):
            self._labeler(max_queries=0)

    def test_label_raises_before_simulating_over_budget(self):
        from repro.litho import LithoBudgetExceeded

        labeler = self._labeler(max_queries=2)
        a, b, c = self._clips(3)
        labeler.label(a)
        labeler.label(b)
        labeler.label(a)  # cached, free — never counts against budget
        with pytest.raises(LithoBudgetExceeded) as info:
            labeler.label(c)
        assert labeler.query_count == 2  # the meter never exceeds budget
        assert info.value.budget == 2
        assert info.value.used == 2
        assert info.value.requested == 1

    def test_label_batch_overrun_keeps_committed_chunks(self):
        """The budget is enforced per chunk: an overrun mid-batch keeps
        every already-committed verdict and never charges the rejected
        chunk."""
        from repro.litho import LithoBudgetExceeded

        labeler = self._labeler(max_queries=3)
        clips = self._clips(5)
        with pytest.raises(LithoBudgetExceeded):
            labeler.label_batch(clips, chunk_size=2)
        # chunk [0, 1] committed; chunk [2, 3] was rejected up front
        assert labeler.query_count == 2
        assert labeler.is_cached(clips[0])
        assert labeler.is_cached(clips[1])
        assert not labeler.is_cached(clips[2])
        # the surviving verdicts are free on the next request
        labeler.label_batch(clips[:3], chunk_size=2)
        assert labeler.query_count == 3
