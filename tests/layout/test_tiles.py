"""Tests for the tiled lazy clip lattice (repro.layout.tiles)."""

import pytest

from repro.data.synth import DUV_RULES, generate_layout
from repro.layout import Layout, Rect, TileGrid, extract_clip_grid
from repro.layout.tiles import EMPTY_TILE_DIGEST


@pytest.fixture(scope="module")
def chip():
    return generate_layout(
        DUV_RULES, tiles_x=5, tiles_y=4, stress_probability=0.4, seed=11
    )


@pytest.fixture(scope="module")
def grid(chip):
    return TileGrid.for_layout(
        chip, DUV_RULES.clip_size, DUV_RULES.core_margin, tile_clips=2
    )


class TestLattice:
    def test_counts_match_eager_grid(self, chip, grid):
        eager = extract_clip_grid(
            chip, DUV_RULES.clip_size, DUV_RULES.core_margin,
            drop_empty=False,
        )
        assert grid.n_windows == len(eager)

    def test_windows_and_indices_match_eager_grid(self, chip, grid):
        eager = {
            clip.index: clip
            for clip in extract_clip_grid(
                chip, DUV_RULES.clip_size, DUV_RULES.core_margin,
                drop_empty=False,
            )
        }
        seen = {}
        for tile in grid.tiles():
            for clip in grid.iter_clips(chip, tile, drop_empty=False):
                assert clip.index not in seen
                seen[clip.index] = clip
        assert seen.keys() == eager.keys()
        for index, clip in seen.items():
            assert clip.window == eager[index].window
            assert clip.content_key() == eager[index].content_key()

    def test_tiles_partition_the_lattice(self, grid):
        covered = set()
        for tile in grid.tiles():
            for index, _ in grid.iter_windows(tile):
                assert index not in covered
                covered.add(index)
        assert covered == set(range(grid.n_windows))

    def test_ragged_edge_tiles_are_clamped(self, grid):
        # 5x4 pattern tiles with tile_clips=2 leaves ragged edges
        last = grid.tile(grid.n_tile_cols - 1, grid.n_tile_rows - 1)
        assert last.row1 == grid.n_rows
        assert last.col1 == grid.n_cols
        assert 0 < last.n_windows <= grid.tile_clips ** 2

    def test_window_outside_lattice_raises(self, grid):
        with pytest.raises(IndexError):
            grid.window(grid.n_rows, 0)
        with pytest.raises(IndexError):
            grid.tile(grid.n_tile_cols, 0)

    def test_die_smaller_than_clip_has_no_windows(self):
        grid = TileGrid(Rect(0, 0, 500, 500), clip_size=1200,
                        core_margin=300)
        assert grid.n_windows == 0
        assert grid.n_tiles == 0
        assert grid.tiles() == []

    def test_invalid_geometry_rejected(self):
        die = Rect(0, 0, 5000, 5000)
        with pytest.raises(ValueError):
            TileGrid(die, clip_size=1200, core_margin=600)
        with pytest.raises(ValueError):
            TileGrid(die, clip_size=1200, core_margin=300, tile_clips=0)
        with pytest.raises(ValueError):
            TileGrid(die, clip_size=1200, core_margin=300, step=-5)


class TestDigests:
    def test_digest_is_deterministic(self, chip, grid):
        tile = grid.tile(0, 0)
        assert grid.tile_digest(chip, tile) == grid.tile_digest(chip, tile)

    def test_given_keys_digest_as_computed_ones(self, chip, grid):
        for tile in grid.tiles():
            clips = list(grid.iter_clips(chip, tile))
            keys = [clip.content_key() for clip in clips]
            assert TileGrid.digest_clips(clips, keys) == grid.tile_digest(
                chip, tile
            )
        with pytest.raises(ValueError, match="content keys"):
            TileGrid.digest_clips(clips, keys + ["extra"])

    def test_empty_tile_digests_to_sentinel(self):
        layout = Layout([], die=Rect(0, 0, 3000, 3000), name="blank")
        grid = TileGrid.for_layout(layout, 1200, 300, tile_clips=2)
        for tile in grid.tiles():
            assert grid.tile_digest(layout, tile) == EMPTY_TILE_DIGEST

    def test_manifest_covers_every_tile(self, chip, grid):
        manifest = grid.manifest(chip)
        assert set(manifest) == {tile.key for tile in grid.tiles()}

    def test_local_edit_changes_only_local_digests(self, chip, grid):
        manifest = grid.manifest(chip)
        # drop a rect inside the region of tile (0, 0) only: the core
        # of the first window, clear of any margin overlap with others
        target = grid.tile(0, 0)
        first_core = grid.window(0, 0).expanded(-DUV_RULES.core_margin)
        edited = Layout(
            list(chip.rects)
            + [Rect(first_core.x0 + 10, first_core.y0 + 10,
                    first_core.x0 + 80, first_core.y0 + 80)],
            die=chip.die,
            tech_nm=chip.tech_nm,
            name=chip.name,
        )
        after = grid.manifest(edited)
        changed = {key for key in manifest if manifest[key] != after[key]}
        assert target.key in changed
        # the edit sits well inside one window; only tiles whose region
        # touches it may change, which here is the one corner tile
        assert changed == {target.key}

    def test_index_is_part_of_the_digest(self):
        # identical geometry at different lattice positions must not
        # collide: the digest folds the clip index, not just content
        rect = [Rect(110, 110, 400, 300)]
        a = Layout(rect, die=Rect(0, 0, 1800, 1200), name="a")
        grid = TileGrid.for_layout(a, 1200, 300, tile_clips=1)
        digests = [grid.tile_digest(a, t) for t in grid.tiles()]
        non_empty = [d for d in digests if d != EMPTY_TILE_DIGEST]
        assert len(set(non_empty)) == len(non_empty)

    def test_fingerprint_identifies_the_lattice(self, chip):
        a = TileGrid.for_layout(chip, 1200, 300, tile_clips=2)
        b = TileGrid.for_layout(chip, 1200, 300, tile_clips=2)
        c = TileGrid.for_layout(chip, 1200, 300, tile_clips=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
