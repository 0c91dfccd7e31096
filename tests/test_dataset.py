from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmac import dataset
from capmac.dataset import (GLYPH_ORDER, GRIDS, LABELS, Glyph, encode_capacitive,
                            letter_batches, noisy_letters, sample_batch, write_bitmap,
                            write_capacitance_csv)
from capmac.device import NOISE_FLOOR_PF, SensorParams, apply_noise, series_capacitance

FIXTURES = Path(__file__).parent / "fixtures"
PARAMS = SensorParams()


def read_bitmap(path) -> np.ndarray:
    """The inverse of dataset.write_bitmap."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.uint8)


def read_capacitance_csv(path) -> np.ndarray:
    """The inverse of dataset.write_capacitance_csv."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


class TestLetterPatterns:
    """The corpus GRIDS: the canonical bitmaps per resolution, indexed by
    glyph number."""

    def test_four_distinct_3x3(self):
        assert len(GRIDS[3]) == 4
        flat = [tuple(grid.reshape(-1)) for grid in GRIDS[3]]
        assert len(set(flat)) == 4

    def test_four_distinct_5x5(self):
        assert len(GRIDS[5]) == 4
        assert all(grid.shape == (5, 5) for grid in GRIDS[5])
        flat = [tuple(grid.reshape(-1)) for grid in GRIDS[5]]
        assert len(set(flat)) == 4

    def test_5x5_embeds_3x3_center(self):
        for g3, g5 in zip(GRIDS[3], GRIDS[5]):
            np.testing.assert_array_equal(g5[1:4, 1:4], g3)

    def test_grids_are_read_only_edge_pads(self):
        for g3, g5 in zip(GRIDS[3], GRIDS[5]):
            np.testing.assert_array_equal(g5, np.pad(g3, 1, mode="edge"))
        for resolution in (3, 5):
            assert GRIDS[resolution].dtype == np.uint8
            assert not GRIDS[resolution].flags.writeable
        assert not LABELS.flags.writeable

    def test_pairwise_hamming_at_least_one(self):
        for res in (3, 5):
            grids = GRIDS[res]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.sum(grids[i] != grids[j]) >= 1

    @pytest.mark.parametrize("resolution", [3, 5])
    def test_matches_frozen_fixtures(self, resolution):
        for glyph, grid in zip(GLYPH_ORDER, GRIDS[resolution]):
            fixture = read_bitmap(FIXTURES / f"glyph_{glyph.value}_{resolution}.txt")
            np.testing.assert_array_equal(grid, fixture)


class TestEncodeCapacitive:
    def test_h_maps_to_class_values(self):
        h = GRIDS[3][0]
        c_i = encode_capacitive(h, PARAMS)
        assert set(np.unique(c_i)) == {16.77, 500.0}
        np.testing.assert_array_equal(c_i == 500.0, h == 1)
        np.testing.assert_array_equal(LABELS[0], [1, 0, 0, 0])

    def test_label_order_is_h_l_y_invz(self):
        assert GLYPH_ORDER == (Glyph.H, Glyph.L, Glyph.Y, Glyph.INV_Z)
        for idx in range(len(GLYPH_ORDER)):
            assert np.argmax(LABELS[idx]) == idx
        np.testing.assert_array_equal(LABELS, np.eye(4))

    def test_series_round_trip_values(self):
        c_i = encode_capacitive(GRIDS[3][0], PARAMS)
        cs = series_capacitance(c_i, PARAMS.c0)
        values = {round(v, 3) for v in np.unique(cs)}
        assert values == {62.937, 13.602}

    def test_low_contrast_collapses_value_gap(self):
        # c_ih must stay strictly above c_il; a vanishing gap approaches the
        # degenerate constant-matrix limit
        params = SensorParams(c_ih=16.78, c_il=16.77)
        c_i = encode_capacitive(GRIDS[3][2], params)
        assert c_i.max() - c_i.min() == pytest.approx(0.01, rel=1e-9)


class TestSampleBatch:
    def test_size_and_shapes(self):
        rng = np.random.default_rng(0)
        batch = sample_batch(20, PARAMS, rng)
        assert len(batch) == 20
        assert all(s.c_i.shape == (3, 3) for s in batch)

    def test_empty_batch_refused(self):
        # Without the check the draw still fails, but naming the letter count.
        with pytest.raises(ValueError, match="^batch size must be >= 1$"):
            sample_batch(0, PARAMS, np.random.default_rng(0))

    def test_zero_noise_gives_identical_glyph_samples(self):
        params = SensorParams(noise_frac=0.0)
        rng = np.random.default_rng(0)
        batch = sample_batch(50, params, rng)
        by_glyph = {}
        for s in batch:
            key = int(np.argmax(s.label))
            if key in by_glyph:
                np.testing.assert_array_equal(s.c_i, by_glyph[key])
            else:
                by_glyph[key] = s.c_i

    def test_deterministic_per_seed(self):
        a = sample_batch(20, PARAMS, np.random.default_rng(42))
        b = sample_batch(20, PARAMS, np.random.default_rng(42))
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.c_i, t.c_i)
            np.testing.assert_array_equal(s.label, t.label)

    def test_resolution_5(self):
        rng = np.random.default_rng(0)
        batch = sample_batch(8, PARAMS, rng, resolution=5)
        assert all(s.c_i.shape == (5, 5) for s in batch)

    def test_clean_values_before_noise(self):
        params = SensorParams(noise_frac=0.0)
        batch = sample_batch(10, params, np.random.default_rng(3))
        for s in batch:
            assert set(np.unique(s.c_i)) <= {16.77, 500.0}

    def test_noise_modes_differ_on_outside_pixels(self):
        per_class = SensorParams(noise_mode="per_class")
        global_ = SensorParams(noise_mode="global")
        a = sample_batch(200, per_class, np.random.default_rng(1))
        b = sample_batch(200, global_, np.random.default_rng(1))
        # same underlying draws, but the global mode scales outside-pixel
        # noise by c_ih instead of c_il, so spreads differ strongly
        lo_a = np.concatenate([s.c_i[GRIDS[3][s.label.argmax()] == 0] for s in a])
        lo_b = np.concatenate([s.c_i[GRIDS[3][s.label.argmax()] == 0] for s in b])
        assert np.std(lo_b) > 5 * np.std(lo_a)


class TestBalancedBatch:
    """The glyph-ordered evaluation draw: `per_glyph` noisy letters of each
    glyph in turn."""

    @staticmethod
    def balanced(per_glyph, params, rng):
        idx = np.repeat(np.arange(4), per_glyph)
        return noisy_letters(idx, params, rng), idx

    def test_layout(self):
        rng = np.random.default_rng(0)
        c_i, idx = self.balanced(25, PARAMS, rng)
        assert len(c_i) == 100
        np.testing.assert_array_equal(idx, np.repeat(np.arange(4), 25))
        clean, _ = self.balanced(25, SensorParams(noise_frac=0.0), rng)
        for c, i in zip(clean, idx):
            np.testing.assert_array_equal(c, encode_capacitive(GRIDS[3][i], PARAMS))

    def test_majority_nearest_own_glyph_at_paper_noise(self):
        # learnability sanity: most noisy samples stay closest to their own
        # clean capacitive letter
        rng = np.random.default_rng(11)
        c_i, idx = self.balanced(100, PARAMS, rng)
        clean = encode_capacitive(GRIDS[3], PARAMS).reshape(4, -1)
        flat = c_i.reshape(len(c_i), -1)
        d = ((flat[:, None, :] - clean[None, :, :]) ** 2).sum(axis=2)
        nearest = d.argmin(axis=1)
        assert np.mean(nearest == idx) > 0.5

    def test_finite_through_series_composition(self):
        rng = np.random.default_rng(5)
        c_i, _ = self.balanced(50, PARAMS, rng)
        cs = series_capacitance(c_i.reshape(-1), PARAMS.c0)
        assert np.all(np.isfinite(cs))


class TestNoisyLetters:
    @pytest.mark.parametrize("resolution", [3, 5])
    @pytest.mark.parametrize("mode", ["per_class", "global"])
    def test_same_stream_as_sample_batch(self, resolution, mode):
        params = SensorParams(noise_mode=mode)
        for seed in range(3):
            batch = sample_batch(20, params, np.random.default_rng(seed), resolution)
            rng = np.random.default_rng(seed)
            c_i = noisy_letters(rng.integers(0, 4, 20), params, rng, resolution)
            np.testing.assert_array_equal(np.stack([s.c_i for s in batch]), c_i)
            assert c_i.shape == (20, resolution, resolution)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 1e4), st.floats(1.01, 100.0), st.floats(0.1, 1e4),
           st.one_of(st.just(0.0), st.floats(0.0, 10.0)), st.sampled_from([3, 5]),
           st.lists(st.integers(0, 3), min_size=1, max_size=30),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_encode_then_apply_noise(self, c_il, ratio, c0, noise_frac,
                                            resolution, idx, seed):
        # Both modes in one process at equal capacitances: a table cached
        # without its noise mode would serve the second the first one's.
        for mode in ("per_class", "global"):
            params = SensorParams(c0, c_il * ratio, c_il, noise_frac, mode)
            clean = encode_capacitive(GRIDS[resolution][idx], params)
            nominal = clean if mode == "per_class" else np.full_like(clean, params.c_ih)
            got = noisy_letters(idx, params, np.random.default_rng(seed), resolution)
            want = apply_noise(clean, nominal, noise_frac, np.random.default_rng(seed))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            if noise_frac > 0:
                z = np.random.default_rng(seed).standard_normal(clean.shape)
                spelled_out = np.maximum(clean + z * (noise_frac * nominal), NOISE_FLOOR_PF)
                np.testing.assert_array_equal(got.view(np.uint64),
                                              spelled_out.view(np.uint64))

    @pytest.mark.parametrize("noise_frac", [0.0, 0.2])
    @pytest.mark.parametrize("mode", ["per_class", "global"])
    def test_draw_never_aliases_the_table(self, noise_frac, mode):
        params = SensorParams(noise_frac=noise_frac, noise_mode=mode)
        idx = [0, 1, 2, 3, 3]
        first = noisy_letters(idx, params, np.random.default_rng(3), 5)
        want = first.copy()
        first[...] = -1.0
        again = noisy_letters(idx, params, np.random.default_rng(3), 5)
        np.testing.assert_array_equal(again, want)

    def test_tables_reject_writes(self):
        noisy_letters([0], PARAMS, np.random.default_rng(0))
        table = dataset._letter_table(PARAMS.c_ih, PARAMS.c_il, 3)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0

    def test_labels_match_glyph_numbers(self):
        batch = sample_batch(20, PARAMS, np.random.default_rng(4))
        idx = np.random.default_rng(4).integers(0, 4, 20)
        for s, i in zip(batch, idx):
            np.testing.assert_array_equal(s.label, np.eye(4)[i])

    def test_unsupported_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            noisy_letters(np.arange(4), PARAMS, np.random.default_rng(0), resolution=4)

    @pytest.mark.parametrize("size", [0, dataset.MAX_DRAW + 1])
    def test_draw_size_bounded(self, size):
        with pytest.raises(ValueError, match="a draw holds"):
            noisy_letters(np.zeros(size, dtype=int), PARAMS, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(dataset.MAX_DRAW,), (4, dataset.MAX_DRAW // 4)])
    def test_draw_of_max_draw_letters_accepted(self, shape):
        # The bound counts letters, whatever the shape of idx; one more is refused.
        c_i = noisy_letters(np.zeros(shape, dtype=int), PARAMS, np.random.default_rng(0))
        assert c_i.shape == (*shape, 3, 3)
        over = np.zeros((shape[0], shape[-1] + 1) if len(shape) > 1 else dataset.MAX_DRAW + 1,
                        dtype=int)
        with pytest.raises(ValueError, match=f"^a draw holds 1 to {dataset.MAX_DRAW} "
                                             f"letters, got {over.size}$"):
            noisy_letters(over, PARAMS, np.random.default_rng(0))


class TestLetterBatches:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), st.sampled_from([0.0, 0.2, 3.0]),
           st.sampled_from(["per_class", "global"]), st.sampled_from([3, 5]),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_separate_draws(self, count, size, noise_frac, mode, resolution, seed):
        # count batches drawn at once equal count (integers, noisy_letters)
        # draws, bit for bit, and leave the stream where those leave it.
        params = SensorParams(noise_frac=noise_frac, noise_mode=mode)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        idx, c_i = letter_batches(count, size, params, rng, resolution)
        assert idx.shape == (count, size) and c_i.shape == (count, size, resolution, resolution)
        for k in range(count):
            want_idx = ref.integers(0, dataset.NUM_GLYPHS, size)
            want = noisy_letters(want_idx, params, ref, resolution)
            np.testing.assert_array_equal(idx[k], want_idx)
            np.testing.assert_array_equal(c_i[k].view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestFixtureIo:
    def test_bitmap_round_trip(self, tmp_path):
        grid = GRIDS[3][3]
        path = tmp_path / "z.txt"
        write_bitmap(path, grid)
        np.testing.assert_array_equal(read_bitmap(path), grid)

    def test_capacitance_csv_round_trip(self, tmp_path):
        c_i = encode_capacitive(GRIDS[3][1], PARAMS)
        path = tmp_path / "l.csv"
        write_capacitance_csv(path, c_i)
        np.testing.assert_array_equal(read_capacitance_csv(path), c_i)
