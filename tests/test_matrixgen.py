import numpy as np
import pytest

from hnf.errors import DimensionError, FormatError, ParameterError
from hnf.matrixgen import (
    WeightMatrix,
    dct_matrix,
    load_weight,
    make_dct_orthonormal,
    make_random_orthonormal,
    make_raw_gaussian,
    save_weight,
)

from oracles import dct_ii_matrix_oracle, traced_peak


def orthonormality_defect(w: WeightMatrix) -> float:
    gram = w.entries.T @ w.entries
    return float(np.max(np.abs(gram - np.eye(w.cols))))


class TestRandomOrthonormal:
    def test_columns_orthonormal(self):
        w = make_random_orthonormal(3, 2, seed=7)
        assert orthonormality_defect(w) <= 1e-10

    def test_wide_shape_rejected(self):
        with pytest.raises(DimensionError):
            make_random_orthonormal(2, 3, seed=0)

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            make_random_orthonormal(3, 0, seed=0)

    def test_square_has_unit_determinant(self):
        w = make_random_orthonormal(4, 4, seed=0)
        assert abs(abs(np.linalg.det(w.entries)) - 1.0) <= 1e-10

    def test_deterministic(self):
        a = make_random_orthonormal(6, 4, seed=42)
        b = make_random_orthonormal(6, 4, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_seed_changes_matrix(self):
        a = make_random_orthonormal(6, 4, seed=1)
        b = make_random_orthonormal(6, 4, seed=2)
        assert not np.array_equal(a.entries, b.entries)

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            make_random_orthonormal(4, 2, seed=-1)
        with pytest.raises(ParameterError):
            make_raw_gaussian(4, 2, seed=2 ** 64)

    def test_orthonormality_over_many_shapes(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for trial in range(100):
            m = int(rng.integers(1, 12))
            n = m + int(rng.integers(0, 12))
            w = make_random_orthonormal(n, m, seed=trial)
            assert orthonormality_defect(w) <= 1e-10

    def test_isometry(self, rng):
        w = make_random_orthonormal(9, 5, seed=3)
        for _ in range(50):
            q1 = rng.standard_normal(5)
            q2 = rng.standard_normal(5)
            lhs = np.sum((w.entries @ q1 - w.entries @ q2) ** 2)
            rhs = np.sum((q1 - q2) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDctOrthonormal:
    def test_first_row_constant(self):
        w = make_dct_orthonormal(4, 4)
        assert np.allclose(w.entries[0], 0.5, atol=1e-14)

    def test_truncated_columns_orthonormal(self):
        w = make_dct_orthonormal(4, 2)
        assert orthonormality_defect(w) <= 1e-12

    def test_wide_shape_rejected(self):
        with pytest.raises(DimensionError):
            make_dct_orthonormal(2, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_matches_independent_transform(self, n):
        ours = dct_matrix(n)
        theirs = dct_ii_matrix_oracle(n)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_truncation_equals_zero_padding(self, rng):
        n, m = 7, 3
        w = make_dct_orthonormal(n, m)
        q = rng.standard_normal(m)
        padded = np.concatenate([q, np.zeros(n - m)])
        assert np.allclose(w.entries @ q, dct_matrix(n) @ padded, atol=1e-12)


class TestRawGaussian:
    def test_reproducible(self):
        a = make_raw_gaussian(5, 3, seed=1)
        b = make_raw_gaussian(5, 3, seed=1)
        assert np.array_equal(a.entries, b.entries)
        assert a.entries.shape == (5, 3)

    def test_mean_near_zero(self):
        w = make_raw_gaussian(1000, 16, seed=2)
        assert abs(float(w.entries.mean())) < 0.05

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            make_raw_gaussian(0, 3, seed=0)

    def test_wide_shape_allowed(self):
        w = make_raw_gaussian(2, 9, seed=0)
        assert w.entries.shape == (2, 9)
        assert not w.orthonormal


class TestApply:
    @pytest.mark.parametrize("shape", [(7, 4), (3, 9)], ids=["tall", "wide"])
    def test_apply_is_the_product_bit_for_bit(self, rng, shape):
        w = make_raw_gaussian(*shape, seed=3)
        q = rng.standard_normal((shape[1], 37))
        want = (w.entries @ q).tobytes()
        assert w.apply(q).tobytes() == want
        out = np.empty((shape[0], 37))
        assert w.apply(q, out) is out
        assert out.tobytes() == want

    def test_out_overlapping_its_input(self, rng):
        """As inside the walk for a wide hand-made layer: ``q`` fills a
        buffer's top rows, and ``W q`` goes into the last rows of the
        layer's output, which ``q`` also covers."""
        w = make_raw_gaussian(4, 12, seed=3)
        buf = rng.standard_normal((16, 37))
        q = buf[:12]
        want = (w.entries @ q).tobytes()
        out = buf[:8][-4:]
        assert np.shares_memory(q, out)
        assert w.apply(q, out).tobytes() == want
        assert buf[4:8].tobytes() == want


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        for w in [make_random_orthonormal(6, 4, seed=9),
                  make_dct_orthonormal(5, 5),
                  make_raw_gaussian(3, 7, seed=0)]:
            path = tmp_path / "w.hnfw"
            save_weight(w, path)
            back = load_weight(path)
            assert np.array_equal(back.entries, w.entries)
            assert back.kind == w.kind
            assert back.seed == w.seed
            assert (back.rows, back.cols) == (w.rows, w.cols)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.hnfw"
        save_weight(make_dct_orthonormal(3, 2), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_weight(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "w.hnfw"
        save_weight(make_dct_orthonormal(3, 2), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_weight(path)

    def test_entries_are_written_and_read_in_place(self, tmp_path):
        """A 16 MiB weight is written with no copy of its entries and read
        straight into its array: saving allocates at most 1 MiB, loading at
        most the entries' bytes plus 1 MiB."""
        w = make_raw_gaussian(2048, 1025, seed=2)
        assert w.entries.nbytes >= 16 * 2 ** 20
        path = tmp_path / "w.hnfw"
        _, saved = traced_peak(save_weight, w, path)
        back, loaded = traced_peak(load_weight, path)
        assert np.array_equal(back.entries, w.entries)
        assert saved <= 2 ** 20
        assert loaded <= w.entries.nbytes + 2 ** 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, tmp_path, value):
        w = make_random_orthonormal(6, 4, seed=9)
        entries = w.entries.copy()
        entries[5, 3] = value
        path = tmp_path / "w.hnfw"
        save_weight(WeightMatrix(6, 4, entries, w.kind, w.seed), path)
        with pytest.raises(FormatError, match="w.hnfw: non-finite"):
            load_weight(path)
