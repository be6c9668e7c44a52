import numpy as np
import pytest

from coeye import Dataset, resample, smote
from coeye.errors import NoMinorityClass


def imbalanced(counts: dict[int, int], n: int = 8, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for label, count in counts.items():
        center = float(label) * 10.0
        for _ in range(count):
            rows.append(center + rng.normal(0, 1.0, n))
            labels.append(label)
    return Dataset(np.asarray(rows), np.asarray(labels))


def find_interpolation(synthetic, originals, tol=1e-9):
    """Return True when synthetic = a + u*(b - a) for some original pair, u in [0,1]."""
    for i in range(len(originals)):
        for j in range(len(originals)):
            if i == j:
                continue
            a, b = originals[i], originals[j]
            direction = b - a
            mask = np.abs(direction) > tol
            if not mask.any():
                if np.allclose(synthetic, a, atol=tol):
                    return True
                continue
            u_values = (synthetic[mask] - a[mask]) / direction[mask]
            u = u_values[0]
            if not (-tol <= u <= 1 + tol):
                continue
            if np.allclose(u_values, u, atol=1e-6) and np.allclose(
                synthetic, a + u * direction, atol=1e-6
            ):
                return True
    return False


class TestSmote:
    def test_balanced_passthrough(self):
        ds = imbalanced({1: 10, 2: 10})
        out, report = smote(ds, seed=0)
        assert out is ds
        assert report.smote_percentage == 0.0
        assert report.added_counts == {1: 0, 2: 0}

    def test_percentage_formula(self):
        ds = imbalanced({1: 10, 2: 4})
        out, report = smote(ds, seed=1)
        assert out.class_counts() == {1: 10, 2: 10}
        assert report.added_counts == {1: 0, 2: 6}
        assert report.smote_percentage == pytest.approx(6 / 14)

    def test_segment_interpolation(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 9.0], [5.1, 9.2], [4.9, 8.8], [5.0, 9.1]])
        y = np.array([1, 1, 2, 2, 2, 2])
        out, report = smote(Dataset(X, y), k=1, seed=3)
        assert report.added_counts[1] == 2
        for row in out.X[len(X):][out.y[len(X):] == 1]:
            # minority points (0,0) and (1,1): synthetics sit at (t, t)
            assert row[0] == pytest.approx(row[1], abs=1e-12)
            assert 0.0 - 1e-12 <= row[0] <= 1.0 + 1e-12

    def test_originals_preserved_and_first(self):
        ds = imbalanced({1: 7, 2: 3}, seed=5)
        out, _ = smote(ds, seed=9)
        assert np.array_equal(out.X[: len(ds)], ds.X)
        assert np.array_equal(out.y[: len(ds)], ds.y)

    def test_all_synthetics_are_convex_combinations(self):
        ds = imbalanced({1: 9, 2: 4, 3: 5}, seed=2)
        out, report = smote(ds, seed=7)
        for label in (2, 3):
            originals = ds.X[ds.y == label]
            synthetics = out.X[len(ds):][out.y[len(ds):] == label]
            assert len(synthetics) == report.added_counts[label]
            for row in synthetics:
                assert find_interpolation(row, originals)

    def test_balance_reached(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            labels = rng.integers(2, 5)
            counts = {int(l): int(rng.integers(2, 12)) for l in range(labels)}
            out, _ = smote(imbalanced(counts, seed=trial), seed=trial)
            result = out.class_counts()
            assert len(set(result.values())) == 1

    def test_single_instance_class_skipped(self):
        ds = imbalanced({1: 6, 2: 1})
        out, report = smote(ds, seed=0)
        assert out.class_counts() == {1: 6, 2: 1}
        assert report.smote_percentage == 0.0

    def test_single_class_rejected(self):
        ds = imbalanced({1: 5})
        with pytest.raises(NoMinorityClass):
            smote(ds, seed=0)

    def test_deterministic(self):
        ds = imbalanced({1: 10, 2: 5}, seed=4)
        a, _ = smote(ds, seed=11)
        b, _ = smote(ds, seed=11)
        c, _ = smote(ds, seed=12)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    @pytest.mark.parametrize("counts, k", [({1: 8, 2: 4}, 0), ({1: 8, 2: 4}, -2), ({1: 5, 2: 5}, 0),
                                           ({1: 8, 2: 4}, True), ({1: 8, 2: 4}, 2.0)],
                             ids=["zero", "negative", "balanced_zero", "bool", "float"])
    def test_k_must_be_an_integer_of_at_least_1(self, counts, k):
        # 0 and -2 failed inside numpy, a balanced set passed with k=0, True worked as 1
        with pytest.raises(ValueError, match="^k must be an integer of at least 1, got "):
            smote(imbalanced(counts), k=k, seed=0)

    def test_k_capped_for_tiny_classes(self):
        ds = imbalanced({1: 8, 2: 2}, seed=1)
        out, report = smote(ds, k=5, seed=0)
        assert report.added_counts[2] == 6
        assert out.class_counts() == {1: 8, 2: 8}


class TestNeighbourBlocks:
    def test_blocks_match_full_tensor(self, monkeypatch):
        rng = np.random.default_rng(6)
        # rounded values give tied distances, so the stable order is tested too
        points = np.round(rng.normal(size=(23, 9)), 1)
        d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :5]
        # 4 rows per block: 6 blocks, the last one short
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 4 * points.size)
        assert np.array_equal(resample._nearest_neighbors(points, 5), expected)
        monkeypatch.setattr(resample, "NEIGHBOR_BLOCK", 1)
        assert np.array_equal(resample._nearest_neighbors(points, 5), expected)
