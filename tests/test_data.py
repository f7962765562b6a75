"""Synthetic samples, measurement simulation, dataset assembly and the PGM
import/export round trip."""

import numpy as np
import pytest

from nsrecon.data import (NoiseSpec, SampleSpec, export_dataset,
                          gen_measurement, gen_square_sample, make_dataset,
                          polar_gaussian, read_pgm16, write_pgm16)
from nsrecon.operators import StripeMaskSpec, make_stripe_operator


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


class TestMeasurement:
    def test_noiseless(self):
        op, _, _ = make_stripe_operator(16, 16)
        x = gen_square_sample(SampleSpec(image_size=16, patch_size=6))
        y, delta = gen_measurement(op, x, NoiseSpec(sigma=0.0))
        np.testing.assert_array_equal(y, op.apply(x))
        assert delta == 0.0

    def test_noise_energy_on_eight_columns(self):
        # E|z|^2 = sigma^2 * (observed pixel count) = 0.0025 * 512 = 1.28
        spec = StripeMaskSpec(image_width=64)
        op, mask, kept = make_stripe_operator(64, 64, spec)
        support = np.zeros((64, 64))
        support[:, list(kept)] = 1.0
        x = np.zeros((64, 64))
        sq = []
        for seed in range(200):
            _, delta = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=seed),
                                       support=support)
            sq.append(delta**2)
        assert np.mean(sq) == pytest.approx(1.28, rel=0.1)

    def test_noise_confined_to_support(self):
        op, mask, kept = make_stripe_operator(16, 16)
        support = np.zeros((16, 16))
        support[:, list(kept)] = 1.0
        x = np.zeros((16, 16))
        y, _ = gen_measurement(op, x, NoiseSpec(sigma=0.1, seed=1),
                               support=support)
        free = [c for c in range(16) if c not in kept]
        assert np.max(np.abs(y[:, free])) == 0.0

    def test_reproducible(self):
        op, _, _ = make_stripe_operator(16, 16)
        x = np.random.default_rng(2).random((16, 16))
        y1, d1 = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=9))
        y2, d2 = gen_measurement(op, x, NoiseSpec(sigma=0.05, seed=9))
        np.testing.assert_array_equal(y1, y2)
        assert d1 == d2

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)


class TestMakeDataset:
    def test_sizes(self):
        op, _, _ = make_stripe_operator(16, 16)
        for n in (1, 20):
            samples = make_dataset(n, "OOD", 0, op, sigma=0.01, patch_size=6)
            assert len(samples) == n
            assert samples[0].x.shape == op.in_shape

    def test_per_sample_seeds(self):
        op, _, _ = make_stripe_operator(16, 16)
        samples = make_dataset(3, "ID", 100, op, sigma=0.01, patch_size=6)
        assert [s.seed for s in samples] == [100, 101, 102]
        again = make_dataset(3, "ID", 100, op, sigma=0.01, patch_size=6)
        for a, b in zip(samples, again):
            np.testing.assert_array_equal(a.y, b.y)

    def test_n_validated(self):
        op, _, _ = make_stripe_operator(16, 16)
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

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm16(path)


def test_export_dataset(tmp_path):
    op, _, kept = make_stripe_operator(16, 16)
    samples = make_dataset(2, "ID", 7, op, sigma=0.01, patch_size=6)
    manifest = export_dataset(samples, tmp_path, data_range=2.0)
    with open(manifest) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("index,kind,seed,patch_row,patch_col")
    assert len(lines) == 3
    x_back = read_pgm16(tmp_path / "x_0000.pgm") * 2.0
    np.testing.assert_allclose(x_back, samples[0].x, atol=2.0 / 65535)
