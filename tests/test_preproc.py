import numpy as np
import pytest

from langrec.dataio import check_weights, class_stats, group_rows
from langrec.preproc import AffinePreproc, apply, lda, length_normalize


def fit_lda(X, labels, weights, out_dim=None):
    """lda of the classes of the rows of X, one label per row."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("embedding vectors must be finite (no NaN/Inf)")
    classes, rows = group_rows(labels)
    return lda(classes, class_stats(X, rows, check_weights(weights, len(X))), out_dim)


def brute_force_lda_directions(X, labels, weights, out_dim):
    """Independent oracle: dense eigensolver on inv(S_w) S_b, no scipy.eigh pairing."""
    labels = np.asarray(labels, dtype=object)
    w = np.asarray(weights, dtype=float)
    V = w.sum()
    gmean = w @ X / V
    d = X.shape[1]
    S_w = np.zeros((d, d))
    S_b = np.zeros((d, d))
    for cls in sorted(set(labels)):
        m = labels == cls
        n_c = w[m].sum()
        mc = w[m] @ X[m] / n_c
        D = X[m] - mc
        S_w += (w[m][:, None] * D).T @ D
        S_b += n_c * np.outer(mc - gmean, mc - gmean)
    vals, vecs = np.linalg.eig(np.linalg.inv(S_w) @ S_b)
    order = np.argsort(vals.real)[::-1]
    return vecs[:, order[:out_dim]].real.T


class TestLengthNormalize:
    def test_simple(self):
        assert np.allclose(length_normalize(np.array([0.0, 2.0])), [0.0, 1.0])

    def test_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        assert np.allclose(length_normalize(v), v)

    def test_near_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            length_normalize(np.array([1e-300, 0.0]))


class TestApply:
    def test_identity_map(self):
        p = AffinePreproc(A=np.eye(2), b=np.zeros(2))
        assert np.allclose(apply(p, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_norm_output(self):
        rng = np.random.default_rng(0)
        p = AffinePreproc(A=rng.standard_normal((3, 5)), b=rng.standard_normal(3))
        for _ in range(50):
            y = apply(p, rng.standard_normal(5))
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12

    def test_zero_output_rejected(self):
        p = AffinePreproc(A=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValueError, match="degenerate"):
            apply(p, np.array([1.0, 1.0]))

    def test_transform_matches_apply(self):
        rng = np.random.default_rng(1)
        p = AffinePreproc(A=rng.standard_normal((2, 4)), b=rng.standard_normal(2))
        X = rng.standard_normal((10, 4))
        batch = p.transform(X)
        for i in range(10):
            assert np.allclose(batch[i], apply(p, X[i]))


class TestFitLda:
    def _two_class_data(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [
                rng.standard_normal((n, 2)) * 0.3 + np.array([1.0, 0.0]),
                rng.standard_normal((n, 2)) * 0.3 + np.array([-1.0, 0.0]),
            ]
        )
        labels = ["p"] * n + ["q"] * n
        return X, labels

    def test_direction_matches_bruteforce_eig(self):
        X, labels = self._two_class_data()
        w = np.ones(len(labels))
        p = fit_lda(X, labels, w, out_dim=1)
        oracle = brute_force_lda_directions(X, labels, w, 1)[0]
        a = p.A[0] / np.linalg.norm(p.A[0])
        o = oracle / np.linalg.norm(oracle)
        assert min(np.linalg.norm(a - o), np.linalg.norm(a + o)) < 1e-8
        # Separating direction is (1, 0) up to sign for these class means.
        assert abs(abs(a[0]) - 1.0) < 0.05

    def test_out_dim_rank_bound(self):
        X, labels = self._two_class_data()
        with pytest.raises(ValueError, match="rank bound"):
            fit_lda(X, labels, np.ones(len(labels)), out_dim=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        X, labels = self._two_class_data()
        w = np.ones(len(labels))
        w[5] = bad
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            fit_lda(X, labels, w, out_dim=1)

    def test_out_dim_defaults_to_rank_bound(self):
        X, labels = self._two_class_data()
        w = np.ones(len(labels))
        default = fit_lda(X, labels, w)
        assert default.out_dim == 1
        assert np.array_equal(default.A, fit_lda(X, labels, w, 1).A)

    def test_weight_scale_invariance(self):
        X, labels = self._two_class_data(seed=3)
        w = np.ones(len(labels))
        p1 = fit_lda(X, labels, w, 1)
        p2 = fit_lda(X, labels, 2.0 * w, 1)
        assert np.allclose(p1.A, p2.A, atol=1e-10)
        assert np.allclose(p1.b, p2.b, atol=1e-10)

    def test_projected_training_data_standardized(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((600, 6)) + np.repeat(
            rng.standard_normal((3, 6)) * 4.0, 200, axis=0
        )
        labels = ["a"] * 200 + ["b"] * 200 + ["c"] * 200
        w = rng.uniform(0.5, 2.0, size=600)
        p = fit_lda(X, labels, w, out_dim=2)
        Z = X @ p.A.T + p.b
        m = w @ Z / w.sum()
        v = w @ (Z - m) ** 2 / w.sum()
        assert np.abs(m).max() < 1e-8
        assert np.abs(v - 1.0).max() < 1e-6

    def test_class_size_precondition(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="fewer than 2"):
            fit_lda(X, ["a", "b", "b"], np.ones(3), 1)

    def test_ridge_on_degenerate_within_scatter(self, caplog):
        # Both classes constant along the second axis: singular S_w.
        X = np.array(
            [[0.0, 1.0], [0.1, 1.0], [1.0, 1.0], [1.1, 1.0]], dtype=float
        )
        labels = ["a", "a", "b", "b"]
        with caplog.at_level("WARNING"):
            p = fit_lda(X, labels, np.ones(4), 1)
        assert any("ridge" in r.message for r in caplog.records)
        assert np.all(np.isfinite(p.A))


def _two_class_data(within_y: float) -> np.ndarray:
    """Two classes whose within-class variance is 1 along x and within_y**2
    along y, so the within-class scatter's condition number is within_y**-2."""
    offsets = np.array([[1.0, within_y], [-1.0, -within_y], [1.0, -within_y], [-1.0, within_y]])
    return np.vstack([offsets, offsets + [5.0, 3.0]])


@pytest.mark.parametrize("within_y, ridge", [(1e-4, False), (1e-6, True), (0.0, True)])
def test_ridge_exactly_when_condition_number_exceeds_limit(caplog, within_y, ridge):
    X = _two_class_data(within_y)
    labels = ["a"] * 4 + ["b"] * 4
    with caplog.at_level("WARNING"):
        p = fit_lda(X, labels, np.ones(8), 1)
    assert any("ill-conditioned" in r.message for r in caplog.records) == ridge
    assert np.all(np.isfinite(p.A))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_embedding_rejected(bad):
    X = _two_class_data(0.5)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_lda(X, ["a"] * 4 + ["b"] * 4, np.ones(8), 1)
