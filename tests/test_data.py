"""Synthetic samples and their noisy measurements, all drawn through
`make_dataset`, the PGM writer's bytes and the lossless export of the
measurements."""

import csv
import re

import numpy as np
import pytest

from nsrecon.data import (KINDS, export_dataset, make_dataset,
                          polar_gaussian, write_csv, write_pgm16)
from nsrecon.experiments import Problem
from nsrecon.linops import make_cumsum
from oracles import polar_gaussian_reference


P64 = Problem(64, 1.0, 0.01)
P16 = Problem(16, 1.0, 0.01)


def pgm_pixels(path, shape):
    """The pixels of a PGM that `write_pgm16` wrote: its fixed header for
    an image of `shape`, then one big-endian 16-bit word per pixel."""
    header = b"P5\n%d %d\n65535\n" % (shape[1], shape[0])
    data = path.read_bytes()
    assert data[:len(header)] == header
    assert len(data) == len(header) + 2 * shape[0] * shape[1]
    return np.frombuffer(data[len(header):], dtype=">u2").reshape(shape)


def first_row_col(x):
    """The top row and left column of the patch in x."""
    return np.where(x.any(axis=1))[0][0], np.where(x.any(axis=0))[0][0]


class TestSamples:
    # images of the default 20x20 patch on 64x64, noiseless unless the
    # test is about the measurement

    def test_id_row_sums_alternate(self):
        x = make_dataset(1, "ID", 3, P64.op, 0.0, P64.support)[0].x
        rows = np.where(x.any(axis=1))[0]
        assert rows.size == 20 // 2  # odd patch rows are zero
        sums = x[rows[0]:rows[0] + 20].sum(axis=1)
        np.testing.assert_array_equal(sums[0::2], 20)
        np.testing.assert_array_equal(sums[1::2], 0.0)

    def test_ood_constant_patch(self):
        x = make_dataset(1, "OOD", 4, P64.op, 0.0, P64.support)[0].x
        vals = np.unique(x)
        np.testing.assert_array_equal(vals, [0.0, 0.5])
        assert np.sum(x == 0.5) == 400

    def test_patch_position_even_and_in_range(self):
        for s in make_dataset(50, "ID", 0, P64.op, 0.0, P64.support):
            row, col = s.position
            assert (row, col) == first_row_col(s.x)
            assert row % 2 == 0 and col % 2 == 0
            assert 0 <= row <= 64 - 20 and 0 <= col <= 64 - 20

    def test_seed_determinism_and_variation(self):
        a = make_dataset(1, "ID", 5, P64.op, 0.0, P64.support)[0]
        b = make_dataset(1, "ID", 5, P64.op, 0.0, P64.support)[0]
        np.testing.assert_array_equal(a.x, b.x)
        positions = {first_row_col(s.x)
                     for s in make_dataset(100, "OOD", 0, P64.op, 0.0,
                                           P64.support)}
        assert len(positions) > 10

    def test_validation(self):
        op, support = P16.op, P16.support
        with pytest.raises(ValueError, match="kind must be one of"):
            make_dataset(1, "weird", 0, op, 0.05, support)
        with pytest.raises(ValueError, match="patch must fit"):
            make_dataset(1, "ID", 0, op, 0.05, support, patch_size=20)

    @pytest.mark.parametrize("patch_size", [-4, 0])
    def test_non_positive_patch_size_rejected(self, patch_size):
        # a negative patch would draw rows past the image and stay blank
        problem = Problem(32, 1.0, 0.01)
        with pytest.raises(ValueError, match=r"1 <= patch_size <= 32"):
            make_dataset(1, "ID", 0, problem.op, 0.05, problem.support,
                         patch_size=patch_size)


class TestPolarGaussian:
    def test_moments(self):
        rng = np.random.default_rng(0)
        draws = polar_gaussian(rng, 200_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_count_and_determinism(self):
        a = polar_gaussian(np.random.default_rng(1), 999)
        b = polar_gaussian(np.random.default_rng(1), 999)
        assert a.shape == (999,)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2, 13, 25])
    def test_matches_reference_stream(self, n, seed):
        got = polar_gaussian(np.random.default_rng(seed), n)
        want = polar_gaussian_reference(np.random.default_rng(seed), n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed,n", [(13, 2), (25, 3), (246, 7)])
    def test_matches_reference_when_few_pairs_accepted(self, seed, n):
        # the first 2n pairs of these seeds hold fewer than n accepted
        # ones, so the draws reach into the v half
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, 2 * n)
        v = rng.uniform(-1.0, 1.0, 2 * n)
        s = u * u + v * v
        assert 0 < np.count_nonzero((s > 0) & (s < 1)) < n
        got = polar_gaussian(np.random.default_rng(seed), n)
        want = polar_gaussian_reference(np.random.default_rng(seed), n)
        assert np.array_equal(got, want)


class TestMeasurement:
    def test_noiseless(self):
        # sigma = 0 draws zero noise: y is A x to the sign bit
        problem = Problem(16, 1.0, 0.01)
        for kind in KINDS:
            for support in (np.ones((16, 16)), problem.support):
                s = make_dataset(1, kind, 0, problem.op, 0.0, support,
                                 patch_size=6)[0]
                assert s.y.tobytes() == problem.op.apply(s.x).tobytes()
                assert s.delta == 0.0

    def test_noise_energy_on_eight_columns(self):
        # E|z|^2 = sigma^2 * (observed pixel count) = 0.0025 * 512 = 1.28
        support = np.zeros((64, 64))
        support[:, [0, 1, 4, 5, 8, 9, 12, 13]] = 1.0
        samples = make_dataset(200, "ID", 0, make_cumsum(64, 64), 0.05,
                               support)
        assert np.mean([s.delta**2 for s in samples]) == pytest.approx(
            1.28, rel=0.1)

    def test_noise_confined_to_support(self):
        problem = Problem(16, 1.0, 0.01)
        s = make_dataset(1, "ID", 1, problem.op, 0.1, problem.support,
                         patch_size=6)[0]
        z = s.y - problem.op.apply(s.x)
        free = problem.support == 0.0
        assert free.any() and np.max(np.abs(z[free])) == 0.0
        assert np.all(z[~free] != 0.0)
        assert s.delta == pytest.approx(np.linalg.norm(z), rel=1e-12)

    def test_reproducible(self):
        # a sample's image and noise depend on its own seed only
        op, support = P16.op, P16.support
        a = make_dataset(3, "ID", 7, op, 0.05, support, patch_size=6)[2]
        b = make_dataset(1, "ID", 9, op, 0.05, support, patch_size=6)[0]
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.delta == b.delta and a.position == b.position

    def test_sigma_validated(self):
        op, support = P16.op, P16.support
        with pytest.raises(ValueError, match="sigma must be finite"):
            make_dataset(1, "ID", 0, op, -0.1, support, patch_size=6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        op, support = P16.op, P16.support
        with pytest.raises(ValueError, match="sigma must be finite"):
            make_dataset(1, "ID", 0, op, bad, support, patch_size=6)


class TestMakeDataset:
    def test_sizes(self):
        op, support = P16.op, P16.support
        for n in (1, 20):
            samples = make_dataset(n, "OOD", 0, op, 0.01, support,
                                   patch_size=6)
            assert len(samples) == n
            assert samples[0].x.shape == op.in_shape

    def test_per_sample_seeds(self):
        op, support = P16.op, P16.support
        samples = make_dataset(3, "ID", 100, op, 0.01, support, patch_size=6)
        assert [s.seed for s in samples] == [100, 101, 102]
        again = make_dataset(3, "ID", 100, op, 0.01, support, patch_size=6)
        for a, b in zip(samples, again):
            np.testing.assert_array_equal(a.y, b.y)

    def test_one_generator_per_image_and_noise(self, monkeypatch):
        # the patch position is drawn once per sample, with the image
        op, support = P16.op, P16.support
        seeds = []
        default_rng = np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        samples = make_dataset(3, "ID", 100, op, 0.01, support, patch_size=6)
        # image seed, then its noise seed on a disjoint stream
        assert seeds == [100, 7777877, 101, 7777878, 102, 7777879]
        for s in samples:
            row, col = s.position
            assert s.x[row, col] == 1.0 and s.x[:row].sum() == 0.0
            assert s.x[:, :col].sum() == 0.0

    def test_n_validated(self):
        op, support = P16.op, P16.support
        with pytest.raises(ValueError):
            make_dataset(0, "ID", 0, op, 0.05, support)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.random.default_rng(3).random((7, 5))
        path = tmp_path / "img.pgm"
        write_pgm16(path, img)
        back = pgm_pixels(path, img.shape) / 65535
        np.testing.assert_allclose(back, img, atol=0.5 / 65535)

    def test_clamps(self, tmp_path):
        img = np.array([[-1.0, 2.0]])
        path = tmp_path / "clamp.pgm"
        write_pgm16(path, img)
        np.testing.assert_array_equal(pgm_pixels(path, (1, 2)), [[0, 65535]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        img = np.zeros((2, 3))
        img[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            write_pgm16(path, img)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3,), ()])
    def test_write_refuses_a_non_2d_image(self, tmp_path, shape):
        # a (2, 3, 4) stack used to write a 3x2 header over 24 pixels
        path = tmp_path / "stack.pgm"
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            write_pgm16(path, np.zeros(shape))
        assert not path.exists()


class TestWriteCsv:
    def test_header_is_the_first_rows_keys(self, tmp_path):
        rows = [{"b": 1, "a": 0.1, "s": "x"}, {"b": 2, "a": 1e-300, "s": ""}]
        path = tmp_path / "t.csv"
        write_csv(path, rows)
        assert path.read_bytes() == (b"b,a,s\r\n1,0.1,x\r\n"
                                     b"2,1e-300,\r\n")

    def test_empty_table_writes_its_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [], ("epoch", "loss"))
        assert path.read_bytes() == b"epoch,loss\r\n"

    def test_rejects_a_table_without_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="needs rows or column names"):
            write_csv(path, [])
        assert not path.exists()

    def test_rejects_a_key_outside_the_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", [{"a": 1}, {"a": 2, "b": 3}])


def test_export_dataset(tmp_path):
    op, support = P16.op, P16.support
    samples = make_dataset(2, "ID", 7, op, 0.01, support, patch_size=6)
    manifest = export_dataset(samples, tmp_path)
    with open(manifest) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("index,kind,seed,patch_row,patch_col")
    assert len(lines) == 3
    x_back = pgm_pixels(tmp_path / "x_0000.pgm", samples[0].x.shape)
    np.testing.assert_array_equal(x_back, samples[0].x * 65535)


def test_export_dataset_measurements_are_lossless(tmp_path):
    # at unit spacing y leaves the PGM range [0, 1] on both sides
    op, support = P16.op, P16.support
    samples = make_dataset(3, "ID", 7, op, 0.05, support, patch_size=6)
    assert max(s.y.max() for s in samples) > 1.0
    assert min(s.y.min() for s in samples) < 0.0
    manifest = export_dataset(samples, tmp_path)
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(samples)
    for s, row in zip(samples, rows):
        y = np.load(tmp_path / row["y_npy"])
        assert y.dtype == np.float64 and y.shape == s.y.shape
        assert y.tobytes() == s.y.tobytes()
