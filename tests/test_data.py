"""Synthetic samples, measurement simulation, dataset assembly, the PGM
import/export round trip and the lossless export of the measurements."""

import csv

import numpy as np
import pytest

from nsrecon.data import (NoiseSpec, SampleSpec, export_dataset,
                          gen_measurement, gen_square_sample, make_dataset,
                          polar_gaussian, read_pgm16, write_pgm16)
from nsrecon.experiments import Problem
from nsrecon.operators import make_cumsum
from oracles import polar_gaussian_reference


class TestSamples:
    def test_id_row_sums_alternate(self):
        spec = SampleSpec(kind="ID", seed=3)
        x = gen_square_sample(spec)
        rows = np.where(x.any(axis=1))[0]
        assert rows.size == spec.patch_size // 2  # odd patch rows are zero
        top = rows[0]
        sums = x[top:top + spec.patch_size].sum(axis=1)
        np.testing.assert_array_equal(sums[0::2], spec.patch_size)
        np.testing.assert_array_equal(sums[1::2], 0.0)

    def test_ood_constant_patch(self):
        x = gen_square_sample(SampleSpec(kind="OOD", seed=4))
        vals = np.unique(x)
        np.testing.assert_array_equal(vals, [0.0, 0.5])
        assert np.sum(x == 0.5) == 400

    def test_patch_position_even_and_in_range(self):
        for seed in range(50):
            spec = SampleSpec(kind="ID", seed=seed)
            x = gen_square_sample(spec)
            rows = np.where(x.any(axis=1))[0]
            cols = np.where(x.any(axis=0))[0]
            assert rows[0] % 2 == 0 and cols[0] % 2 == 0
            assert rows[0] <= spec.image_size - spec.patch_size

    def test_seed_determinism_and_variation(self):
        a = gen_square_sample(SampleSpec(kind="ID", seed=5))
        b = gen_square_sample(SampleSpec(kind="ID", seed=5))
        np.testing.assert_array_equal(a, b)
        positions = set()
        for seed in range(100):
            x = gen_square_sample(SampleSpec(kind="OOD", seed=seed))
            rows = np.where(x.any(axis=1))[0]
            cols = np.where(x.any(axis=0))[0]
            positions.add((rows[0], cols[0]))
        assert len(positions) > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(kind="weird")
        with pytest.raises(ValueError):
            SampleSpec(image_size=10, patch_size=20)


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
        op = Problem(16, 1.0, 0.01).op
        x = gen_square_sample(SampleSpec(image_size=16, patch_size=6))
        y, delta = gen_measurement(op, x, NoiseSpec(sigma=0.0))
        np.testing.assert_array_equal(y, op.apply(x))
        assert delta == 0.0

    def test_noise_energy_on_eight_columns(self):
        # E|z|^2 = sigma^2 * (observed pixel count) = 0.0025 * 512 = 1.28
        op = make_cumsum(64, 64)
        support = np.zeros((64, 64))
        support[:, [0, 1, 4, 5, 8, 9, 12, 13]] = 1.0
        x = np.zeros((64, 64))
        sq = []
        for seed in range(200):
            _, delta = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=seed),
                                       support=support)
            sq.append(delta**2)
        assert np.mean(sq) == pytest.approx(1.28, rel=0.1)

    def test_noise_confined_to_support(self):
        problem = Problem(16, 1.0, 0.01)
        x = np.zeros((16, 16))
        y, _ = gen_measurement(problem.op, x, NoiseSpec(sigma=0.1, seed=1),
                               support=problem.support)
        free = problem.support == 0.0
        assert free.any() and np.max(np.abs(y[free])) == 0.0
        assert np.all(y[~free] != 0.0)

    def test_reproducible(self):
        op = Problem(16, 1.0, 0.01).op
        x = np.random.default_rng(2).random((16, 16))
        y1, d1 = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=9))
        y2, d2 = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=9))
        np.testing.assert_array_equal(y1, y2)
        assert d1 == d2

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma must be finite"):
            NoiseSpec(sigma=bad)


class TestMakeDataset:
    def test_sizes(self):
        op = Problem(16, 1.0, 0.01).op
        for n in (1, 20):
            samples = make_dataset(n, "OOD", 0, op, sigma=0.01, patch_size=6)
            assert len(samples) == n
            assert samples[0].x.shape == op.in_shape

    def test_per_sample_seeds(self):
        op = Problem(16, 1.0, 0.01).op
        samples = make_dataset(3, "ID", 100, op, sigma=0.01, patch_size=6)
        assert [s.seed for s in samples] == [100, 101, 102]
        again = make_dataset(3, "ID", 100, op, sigma=0.01, patch_size=6)
        for a, b in zip(samples, again):
            np.testing.assert_array_equal(a.y, b.y)

    def test_one_generator_per_image_and_noise(self, monkeypatch):
        # the patch position is drawn once per sample, with the image
        op = Problem(16, 1.0, 0.01).op
        seeds = []
        default_rng = np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        samples = make_dataset(3, "ID", 100, op, sigma=0.01, patch_size=6)
        assert len(seeds) == 6
        monkeypatch.undo()
        for s in samples:
            spec = SampleSpec(image_size=16, patch_size=6, seed=s.seed)
            np.testing.assert_array_equal(s.x, gen_square_sample(spec))
            row, col = s.position
            assert s.x[row, col] == 1.0 and s.x[:row].sum() == 0.0
            assert s.x[:, :col].sum() == 0.0

    def test_n_validated(self):
        op = Problem(16, 1.0, 0.01).op
        with pytest.raises(ValueError):
            make_dataset(0, "ID", 0, op)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.random.default_rng(3).random((7, 5))
        path = tmp_path / "img.pgm"
        write_pgm16(path, img)
        back = read_pgm16(path)
        assert back.shape == img.shape
        np.testing.assert_allclose(back, img, atol=1.0 / 65535)

    def test_clamps(self, tmp_path):
        img = np.array([[-1.0, 2.0]])
        path = tmp_path / "clamp.pgm"
        write_pgm16(path, img)
        np.testing.assert_array_equal(read_pgm16(path), [[0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, tmp_path, bad):
        img = np.zeros((2, 3))
        img[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            write_pgm16(path, img)
        assert not path.exists()

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm16(path)


def test_export_dataset(tmp_path):
    op = Problem(16, 1.0, 0.01).op
    samples = make_dataset(2, "ID", 7, op, sigma=0.01, patch_size=6)
    manifest = export_dataset(samples, tmp_path, data_range=2.0)
    with open(manifest) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("index,kind,seed,patch_row,patch_col")
    assert len(lines) == 3
    x_back = read_pgm16(tmp_path / "x_0000.pgm") * 2.0
    np.testing.assert_allclose(x_back, samples[0].x, atol=2.0 / 65535)


def test_export_dataset_measurements_are_lossless(tmp_path):
    # at unit spacing y leaves the PGM range [0, 1] on both sides
    op = Problem(16, 1.0, 0.01).op
    samples = make_dataset(3, "ID", 7, op, sigma=0.05, patch_size=6)
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
