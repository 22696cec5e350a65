import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from langrec.dataio import ClassStats, check_weights, class_stats, group_rows
from langrec.preproc import AffinePreproc, apply, lda, unit_rows


def fit_lda(X, labels, weights, out_dim=None):
    """lda of the classes of the rows of X, one label per row."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("embedding vectors must be finite (no NaN/Inf)")
    classes, rows = group_rows(labels)
    return lda(classes, class_stats(X, rows, check_weights(weights, len(X))), out_dim)


def generalized_eigh_lda(classes, stats: ClassStats, out_dim: int | None = None):
    """Oracle: lda through a generalized eigh(S_b, S_w), as it was computed
    before the total-scatter Cholesky and thin SVD. Returns the AffinePreproc
    and the warning it logs (None if S_w needs no ridge)."""
    if out_dim is None:
        out_dim = len(classes) - 1
    in_dim = stats.sums.shape[1]
    total_w = stats.counts.sum()
    global_mean = stats.sums.sum(axis=0) / total_w
    Dm = stats.sums / stats.counts[:, None] - global_mean
    S_b = (stats.counts[:, None] * Dm).T @ Dm / total_w
    S_w = stats.scatter / total_w
    S_tot = S_w + S_b

    magnitudes = np.abs(np.linalg.eigvalsh(S_w))
    with np.errstate(over="ignore"):
        cond = magnitudes.max() / magnitudes.min() if magnitudes.min() > 0 else np.inf
    warning = None
    if not np.isfinite(cond) or cond > 1e10:
        ridge = 1e-6 * np.trace(S_w) / in_dim
        warning = f"within-class scatter ill-conditioned (cond={cond:.3g}); adding ridge {ridge:.3g}"
        S_w = S_w + ridge * np.eye(in_dim)

    eigvecs = scipy.linalg.eigh(S_b, S_w, subset_by_index=[in_dim - out_dim, in_dim - 1])[1]
    A0 = eigvecs[:, ::-1].T
    A0 *= np.sign(A0[np.arange(out_dim), np.argmax(np.abs(A0), axis=1)])[:, None]
    var_z = np.sum((A0 @ S_tot) * A0, axis=1)
    scale = 1.0 / np.sqrt(var_z)
    return AffinePreproc(A=scale[:, None] * A0, b=-(A0 @ global_mean) * scale), warning


def generalized_eigenvalues(stats: ClassStats) -> np.ndarray:
    """The eigenvalues of S_b against S_w, descending."""
    total_w = stats.counts.sum()
    Dm = stats.sums / stats.counts[:, None] - stats.sums.sum(axis=0) / total_w
    S_b = (stats.counts[:, None] * Dm).T @ Dm
    return scipy.linalg.eigh(S_b, stats.scatter, eigvals_only=True)[::-1]


def row_cosines(A, B) -> np.ndarray:
    """The cosine between each row of A and the same row of B."""
    return np.sum(A * B, axis=1) / (np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def lda_warnings(classes, stats, out_dim=None):
    """lda's result and the warnings it logs."""
    logger, handler = logging.getLogger("langrec.preproc"), _Messages()
    logger.addHandler(handler)
    try:
        p = lda(classes, stats, out_dim)
    finally:
        logger.removeHandler(handler)
    return p, handler.messages


def assert_ridges_and_warns_as_the_oracle(X, labels, p, caplog):
    """p, fitted on (X, labels) with unit weights and out_dim 1, logged the
    oracle's warning (or none) and has its direction."""
    classes, rows = group_rows(labels)
    want, warning = generalized_eigh_lda(classes, class_stats(X, rows, np.ones(len(X))), 1)
    assert [r.getMessage() for r in caplog.records] == ([warning] if warning else [])
    assert np.all(row_cosines(p.A, want.A) >= 1 - 1e-9)


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
    """unit_rows, the length normalisation of every model's front end."""

    def test_simple(self):
        Z, norms = unit_rows(np.array([0.0, 2.0]))
        assert np.allclose(Z, [0.0, 1.0]) and norms == 2.0

    def test_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        assert np.allclose(unit_rows(v)[0], v)

    def test_near_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            unit_rows(np.array([1e-300, 0.0]))


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
        assert_ridges_and_warns_as_the_oracle(X, labels, p, caplog)
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
    assert_ridges_and_warns_as_the_oracle(X, labels, p, caplog)
    assert np.all(np.isfinite(p.A))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_embedding_rejected(bad):
    X = _two_class_data(0.5)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_lda(X, ["a"] * 4 + ["b"] * 4, np.ones(8), 1)


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def class_statistics(draw, rank_deficient=False):
    """(classes, ClassStats, out_dim) of C classes of d-dimensional rows.

    The scatter is R R' for a d x k matrix R: k > d (full rank) and
    out_dim <= min(C - 1, d), unless rank_deficient, where k may be anything
    from 0 up and out_dim anything up to C - 1. The scales of the means and
    of the scatter are drawn independently.
    """
    d = draw(st.integers(1, 8))
    C = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(2, 50, size=C)
    counts = sizes * rng.uniform(0.2, 3.0, size=C)
    mean_scale, scatter_scale = 10.0 ** rng.uniform(-3, 3, size=2)
    sums = counts[:, None] * mean_scale * rng.standard_normal((C, d))
    k = draw(st.integers(0, d + 3)) if rank_deficient else d + 2
    R = rng.standard_normal((d, k)) * rng.uniform(0.1, 3.0, size=k)
    scatter = counts.sum() * scatter_scale * (R @ R.T)
    classes = tuple(f"c{i}" for i in range(C))
    out_dim = draw(st.integers(1, C - 1 if rank_deficient else min(C - 1, d)))
    return classes, ClassStats(counts, sums, sizes, scatter), out_dim


@SETTINGS
@given(class_statistics())
def test_directions_match_the_generalized_eigh_oracle(problem):
    classes, stats, out_dim = problem
    eig = generalized_eigenvalues(stats)
    # Leading eigenvalues separated from each other and from the rest.
    gaps = -np.diff(eig[: out_dim + 1]) if len(eig) > out_dim else -np.diff([*eig, 0.0])
    assume(np.all(gaps > 1e-3 * eig[0]))
    want, warning = generalized_eigh_lda(classes, stats, out_dim)
    top2 = -np.sort(-np.abs(want.A), axis=1)[:, :2]
    assume(top2.shape[1] < 2 or np.all(top2[:, 0] - top2[:, 1] > 1e-6 * top2[:, 0]))
    got, logged = lda_warnings(classes, stats, out_dim)
    assert logged == ([warning] if warning else [])
    assert np.all(row_cosines(got.A, want.A) >= 1 - 1e-9)


@SETTINGS
@given(class_statistics(rank_deficient=True))
def test_lda_raises_nothing_but_named_value_errors(problem):
    classes, stats, out_dim = problem
    try:
        p = lda(classes, stats, out_dim)
    except (np.linalg.LinAlgError, IndexError) as exc:
        pytest.fail(f"{type(exc).__name__} escaped: {exc}")
    except ValueError:
        return
    assert 1 <= p.out_dim <= min(len(classes) - 1, stats.sums.shape[1])


def test_zero_within_class_scatter_is_singular():
    # Every class repeats one point; three classes span the plane, so the
    # between-class scatter alone is positive definite.
    X = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2, axis=0)
    classes, rows = group_rows(["a", "a", "b", "b", "c", "c"])
    stats = class_stats(X, rows, np.ones(6))
    with pytest.raises(np.linalg.LinAlgError):
        generalized_eigh_lda(classes, stats, 2)
    with pytest.raises(ValueError, match="within-class scatter is singular") as raised:
        lda(classes, stats, 2)
    assert not isinstance(raised.value, np.linalg.LinAlgError)


def test_out_dim_above_the_input_dimension_is_a_named_error(monkeypatch):
    # Ten classes of 3-d rows: the default out_dim, 9, exceeds the dimension.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) + np.repeat(rng.standard_normal((10, 3)), 4, axis=0)
    labels = np.repeat(np.arange(10), 4)

    def no_factorisation(*args, **kwargs):
        raise AssertionError("factorised before checking out_dim")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_factorisation)
    monkeypatch.setattr(scipy.linalg, "cholesky", no_factorisation)
    for out_dim in (None, 4):
        with pytest.raises(ValueError, match=r"out_dim (9|4) exceeds the input dimension 3"):
            fit_lda(X, labels, np.ones(40), out_dim)
