"""Tests for the GDSII stream reader/writer."""

import struct

import pytest

from repro.layout import Layout, Rect, load_gds, save_gds
from repro.layout.gds import _parse_real8, _real8


@pytest.fixture
def simple_layout():
    rects = [Rect(0, 0, 100, 50), Rect(200, 300, 450, 400)]
    return Layout(rects, die=Rect(0, 0, 1000, 1000), tech_nm=28,
                  name="gdstest")


class TestReal8:
    @pytest.mark.parametrize("value", [0.0, 1.0, 1e-9, 1e-3, 0.5, 123.456])
    def test_roundtrip(self, value):
        assert _parse_real8(_real8(value)) == pytest.approx(value, rel=1e-12)

    def test_negative(self):
        assert _parse_real8(_real8(-2.5)) == pytest.approx(-2.5)


class TestRoundTrip:
    def test_rect_geometry_preserved(self, simple_layout, tmp_path):
        path = tmp_path / "chip.gds"
        save_gds(simple_layout, path)
        loaded = load_gds(path, tech_nm=28)
        assert sorted(loaded.rects) == sorted(simple_layout.rects)
        assert loaded.name == "gdstest"

    def test_synthetic_chip_roundtrip(self, tmp_path):
        from repro.data.synth import EUV_RULES, generate_layout

        layout = generate_layout(EUV_RULES, 4, 4, 0.3, seed=2, name="chip4")
        path = tmp_path / "chip4.gds"
        save_gds(layout, path)
        loaded = load_gds(path, tech_nm=7)
        assert sorted(loaded.rects) == sorted(layout.rects)
        assert loaded.tech_nm == 7

    def test_file_is_binary_gdsii(self, simple_layout, tmp_path):
        path = tmp_path / "chip.gds"
        save_gds(simple_layout, path)
        data = path.read_bytes()
        # HEADER record: length 6, type 0x00, dtype 0x02, version 600
        length, rtype, dtype, version = struct.unpack_from(">HBBh", data, 0)
        assert (length, rtype, dtype, version) == (6, 0x00, 0x02, 600)
        # stream ends with ENDLIB
        assert data[-2:] == struct.pack(">BB", 0x04, 0x00)

    def test_polygon_boundary_decomposed(self, tmp_path):
        """An L-shaped BOUNDARY is decomposed into rects on load."""
        layout = Layout([Rect(0, 0, 10, 10)], die=Rect(0, 0, 20, 20),
                        name="poly")
        path = tmp_path / "poly.gds"
        save_gds(layout, path)
        # splice in an L-shaped boundary by hand
        data = bytearray(path.read_bytes())
        # build an extra BOUNDARY..ENDEL before ENDSTR+ENDLIB (last 8 bytes)
        ring = ((0, 0), (30, 0), (30, 15), (15, 15), (15, 30), (0, 30), (0, 0))
        xy = b"".join(struct.pack(">ii", x, y) for x, y in ring)
        extra = (
            struct.pack(">HBB", 4, 0x08, 0x00)
            + struct.pack(">HBBh", 6, 0x0D, 0x02, 1)
            + struct.pack(">HBBh", 6, 0x0E, 0x02, 0)
            + struct.pack(">HBB", 4 + len(xy), 0x10, 0x03) + xy
            + struct.pack(">HBB", 4, 0x11, 0x00)
        )
        data[-8:-8] = extra
        path.write_bytes(bytes(data))
        loaded = load_gds(path)
        from repro.layout import total_area

        # union area: the 10x10 rect lies inside the 675 nm^2 L-shape
        assert total_area(loaded.rects) == 30 * 30 - 15 * 15
        assert len(loaded.rects) == 3  # original rect + 2 slab rects

    def test_litho_equivalence_through_gds(self, tmp_path):
        """A clip cut from a GDS-roundtripped chip simulates identically."""
        from repro.data.synth import EUV_RULES, generate_layout
        from repro.layout import extract_clip_grid
        from repro.litho import LithoSimulator

        layout = generate_layout(EUV_RULES, 4, 4, 0.5, seed=5,
                                 target_ratio=0.2)
        path = tmp_path / "rt.gds"
        save_gds(layout, path)
        loaded = load_gds(path, tech_nm=7)
        loaded = Layout(loaded.rects, die=layout.die, tech_nm=7,
                        name=loaded.name)

        sim = LithoSimulator.for_tech(7, grid=96)
        original = extract_clip_grid(layout, EUV_RULES.clip_size,
                                     EUV_RULES.core_margin, drop_empty=False)
        reloaded = extract_clip_grid(loaded, EUV_RULES.clip_size,
                                     EUV_RULES.core_margin, drop_empty=False)
        labels_a = [sim.is_hotspot(c) for c in original]
        labels_b = [sim.is_hotspot(c) for c in reloaded]
        assert labels_a == labels_b


class TestErrors:
    def test_truncated_stream(self, tmp_path):
        path = tmp_path / "bad.gds"
        path.write_bytes(b"\x00\x01")
        with pytest.raises(ValueError, match="too short"):
            load_gds(path)

    def test_missing_endlib(self, tmp_path, simple_layout):
        path = tmp_path / "bad.gds"
        save_gds(simple_layout, path)
        path.write_bytes(path.read_bytes()[:-4])  # chop ENDLIB
        with pytest.raises(ValueError, match="ENDLIB"):
            load_gds(path)

    def test_no_geometry(self, tmp_path):
        from repro.layout.gds import _NODATA, _record, _HEADER, _ENDLIB, _INT2
        import struct as _s

        path = tmp_path / "empty.gds"
        path.write_bytes(
            _record(_HEADER, _INT2, _s.pack(">h", 600))
            + _record(_ENDLIB, _NODATA)
        )
        with pytest.raises(ValueError, match="no BOUNDARY"):
            load_gds(path)

    def test_corrupt_record_length(self, tmp_path):
        path = tmp_path / "bad.gds"
        path.write_bytes(struct.pack(">HBB", 2, 0x00, 0x02))
        with pytest.raises(ValueError, match="corrupt"):
            load_gds(path)
