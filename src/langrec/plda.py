"""Two-covariance PLDA.

The generative model places a latent class mean y ~ N(mu, B_prec^-1) and
observations x | y ~ N(y, W^-1), with B_prec and W the between- and
within-class precision matrices. This module trains the model by weighted
EM, evaluates the exact multi-enrollment log-likelihood ratio, and converts
the model into the four pairwise scoring parameters (Lambda, Gamma, c, k).

Batched exact scoring works in the basis that simultaneously diagonalises
the two precisions (Ioffe, ECCV 2006): there W = I and B_prec = diag(psi),
so every B_prec + nW is diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk

from .dataio import check_weights, class_stats, group_rows, mirror_upper, read_only

logger = logging.getLogger(__name__)

_SYM_TOL = 1e-10
_RIDGE_SCALE = 1e-8
_LOG_2PI = np.log(2.0 * np.pi)


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric within {_SYM_TOL}")
    return 0.5 * (M + M.T)


def _cholesky_or_repair(M: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of M, ridge-repaired with a warning when the smallest
    eigenvalue of M is below the ridge (1e-8 of its mean eigenvalue).

    Deciding by the eigenvalue, not by whether Cholesky happens to succeed,
    keeps the sign of roundoff in a null direction from choosing the outcome.
    """
    ridge = _RIDGE_SCALE * np.trace(M) / M.shape[0]
    if ridge > 0.0 and np.linalg.eigvalsh(M)[0] < ridge:
        logger.warning("%s not positive definite; ridge-repairing with %.3g", name, ridge)
        M = M + ridge * np.eye(M.shape[0])
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is singular beyond ridge repair") from exc


def _chol_logdet(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _chol_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    y = scipy.linalg.solve_triangular(L, rhs, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def _chol_inverse(L: np.ndarray) -> np.ndarray:
    # One SciPy call rather than _chol_solve's two: the same bits for a
    # matrix right-hand side, at half the wrapper overhead EM pays per step.
    inv = scipy.linalg.cho_solve((L, True), np.eye(L.shape[0]))
    return 0.5 * (inv + inv.T)


@dataclass(frozen=True, eq=False)
class PldaModel:
    """Two-covariance model: mean mu, between precision B_prec, within
    precision W, in read-only arrays."""

    mu: np.ndarray
    B_prec: np.ndarray
    W: np.ndarray
    # Derived diagonal basis: T' W^-1 T = I and T' B_prec^-1 T = diag(1 / psi),
    # so x -> T'x maps the model to W = I, B_prec = diag(psi).
    psi: np.ndarray = field(init=False, repr=False)
    T: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        B = _check_symmetric(self.B_prec, "B_prec")
        W = _check_symmetric(self.W, "W")
        if mu.ndim != 1 or B.shape != (mu.size, mu.size) or W.shape != B.shape:
            raise ValueError("mu, B_prec, W dimensions disagree")
        if not all(np.all(np.isfinite(a)) for a in (mu, B, W)):
            raise ValueError("mu, B_prec and W must be finite")
        np.linalg.cholesky(W)
        psi, V = scipy.linalg.eigh(B, W)
        if not psi[0] > 0.0:
            # Exact scoring and to_pair_params work in this basis; with psi <= 0
            # their results would be wrong without any other sign.
            raise ValueError(
                "B_prec is not positive definite relative to W "
                f"(smallest diagonal-basis eigenvalue {psi[0]:.3g})"
            )
        for name, value in (("mu", mu), ("B_prec", B), ("W", W), ("psi", psi), ("T", W @ V)):
            object.__setattr__(self, name, read_only(value))

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class PairScoreParams:
    """Parameters of the single-enrollment pairwise score polynomial, in
    read-only arrays."""

    Lambda: np.ndarray
    Gamma: np.ndarray
    c: np.ndarray
    k: float

    def __post_init__(self):
        Lam = _check_symmetric(self.Lambda, "Lambda")
        Gam = _check_symmetric(self.Gamma, "Gamma")
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1 or Lam.shape != (c.size, c.size) or Gam.shape != Lam.shape:
            raise ValueError("Lambda, Gamma, c dimensions disagree")
        if not (
            np.all(np.isfinite(Lam))
            and np.all(np.isfinite(Gam))
            and np.all(np.isfinite(c))
            and np.isfinite(self.k)
        ):
            raise ValueError("pair-score parameters must be finite")
        object.__setattr__(self, "Lambda", read_only(Lam))
        object.__setattr__(self, "Gamma", read_only(Gam))
        object.__setattr__(self, "c", read_only(c))
        object.__setattr__(self, "k", float(self.k))

    @property
    def dim(self) -> int:
        return self.c.size


def em_train(
    X: np.ndarray,
    labels,
    weights: np.ndarray | None = None,
    n_iters: int = 50,
    tol: float = 1e-9,
    return_trace: bool = False,
):
    """Weighted EM for the two-covariance model.

    Weights act as fractional sample counts and are normalized to mean one,
    so uniformly rescaling all weights leaves the fit unchanged. The
    maximized objective is the weighted marginal log-likelihood
    sum_l log int N(y; mu, B^-1) prod_{i in l} N(x_i; y, W^-1)^{w_i} dy,
    which is non-decreasing over iterations. n_iters=0 returns the
    moment-based initialization (weighted global mean, weighted average
    within-class covariance, covariance of the weighted class means).
    When every class's rows are equal, by exact comparison, the within-class
    covariance is zero and there is no model: ValueError.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    weights = check_weights(weights, n)
    weights = weights * (n / weights.sum())

    classes, rows = group_rows(labels)
    if len(classes) < 2:
        raise ValueError("EM needs at least 2 classes")
    if all((X[r] == X[r[0]]).all() for r in rows):
        raise ValueError("within-class covariance is singular: every class is a single point")
    stats = class_stats(X, rows, weights)
    n_l, f_l, W_cov = stats.counts, stats.sums, stats.scatter
    total, J = weights.sum(), len(classes)

    # X is read only through its class statistics: S_tot = sum_i w_i x_i x_i'
    # is the scatter plus sum_l f_l f_l' / n_l, by one rank-k update.
    S_tot = mirror_upper(dsyrk(1.0, (f_l / np.sqrt(n_l)[:, None]).T, beta=1.0, c=W_cov))
    # Moment initialization.
    mu = f_l.sum(axis=0) / total
    W_cov /= total
    class_means = f_l / n_l[:, None]
    mbar = class_means.mean(axis=0)
    Dm = class_means - mbar
    B_cov = Dm.T @ Dm / J

    B = _chol_inverse(_cholesky_or_repair(B_cov, "between-class covariance"))
    W = _chol_inverse(_cholesky_or_repair(W_cov, "within-class covariance"))

    psi, V, mu_t, f_t = _diagonal_basis(B, W, mu, f_l)

    trace: list[float] = []
    prev_ll = None
    for it in range(n_iters):
        # E-step for all classes at once: each posterior precision B + n_j W
        # is V^-T diag(psi + n_j) V^-1. Posterior means, and the posterior
        # covariances (B + n_j W)^-1 summed plain and weighted by n_j.
        den = psi + n_l[:, None]
        y_hat = ((psi * mu_t + f_t) / den) @ V.T
        y_cov_sum = (V * (1.0 / den).sum(axis=0)) @ V.T
        ny_cov_sum = (V * (n_l[:, None] / den).sum(axis=0)) @ V.T

        # M-step.
        mu = y_hat.mean(axis=0)
        Dy = y_hat - mu
        B_cov = (y_cov_sum + Dy.T @ Dy) / J
        cross = f_l.T @ y_hat
        W_cov = S_tot - cross - cross.T + (n_l[:, None] * y_hat).T @ y_hat + ny_cov_sum
        W_cov /= total
        B = _chol_inverse(_cholesky_or_repair(B_cov, "between-class covariance"))
        W = _chol_inverse(_cholesky_or_repair(W_cov, "within-class covariance"))

        psi, V, mu_t, f_t = _diagonal_basis(B, W, mu, f_l)
        ll = _log_likelihood(n_l, S_tot, B, W, psi, mu_t, f_t)
        trace.append(ll)
        if prev_ll is not None:
            if ll < prev_ll - 1e-8 * (1.0 + abs(prev_ll)):
                logger.warning("EM log-likelihood decreased at iteration %d", it)
            if abs(ll - prev_ll) < tol * (1.0 + abs(prev_ll)):
                break
        prev_ll = ll

    model = PldaModel(mu=mu, B_prec=B, W=W)
    if return_trace:
        return model, trace
    return model


def _diagonal_basis(B, W, mu, f_l):
    """psi and V with V'WV = I and V'BV = diag(psi), plus mu and the class
    sums in that basis: mu~ = mu W V and F~ = F W V."""
    psi, V = scipy.linalg.eigh(B, W)
    T = W @ V
    return psi, V, mu @ T, f_l @ T


def _log_likelihood(n_l, S_tot, B, W, psi, mu_t, f_t) -> float:
    """em_train's objective, summed over all classes in the diagonal basis.

    Per class: log|B + nW| = log|W| + sum log(psi + n), sum_i w_i x_i'W x_i
    sums to tr(W S_tot), and the quadratic terms combine per component into
    (f~^2 + 2 psi mu~ f~ - n psi mu~^2) / (psi + n), which does not cancel.
    log|B| comes from its Cholesky factor: when B is ill-conditioned, psi
    can round to zero or below.
    """
    total, J, d = n_l.sum(), len(n_l), psi.size
    n = n_l[:, None]
    den = psi + n
    quad = (f_t * f_t + psi * mu_t * (2.0 * f_t - n * mu_t)) / den
    return 0.5 * (
        -total * d * _LOG_2PI
        + (total - J) * _chol_logdet(np.linalg.cholesky(W))
        + J * _chol_logdet(np.linalg.cholesky(B))
        - float(np.log(den).sum())
        - float(np.sum(W * S_tot))
        + float(quad.sum())
    )


def set_log_marginal(model: PldaModel, vectors: np.ndarray) -> float:
    """log integral N(y; mu, B^-1) prod_i N(x_i; y, W^-1) dy in closed form."""
    X = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one vector")
    if d != model.dim:
        raise ValueError(f"expected dim {model.dim}, got {d}")
    B, W, mu = model.B_prec, model.W, model.mu
    Lw = np.linalg.cholesky(W)
    Lb = np.linalg.cholesky(B)
    Lam = B + n * W
    Lc = np.linalg.cholesky(Lam)
    gamma = B @ mu + W @ X.sum(axis=0)
    quad = float(gamma @ _chol_solve(Lc, gamma))
    sum_xWx = float(np.einsum("ij,jk,ik->", X, W, X))
    return (
        -0.5 * n * d * _LOG_2PI
        + 0.5 * n * _chol_logdet(Lw)
        + 0.5 * _chol_logdet(Lb)
        - 0.5 * _chol_logdet(Lc)
        - 0.5 * (float(mu @ B @ mu) + sum_xWx)
        + 0.5 * quad
    )


def exact_llr(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """Exact detection LLR for an enrollment set against one test vector."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    test = np.asarray(test, dtype=np.float64).reshape(1, -1)
    joint = np.vstack([enroll, test])
    return (
        set_log_marginal(model, joint)
        - set_log_marginal(model, enroll)
        - set_log_marginal(model, test)
    )


@dataclass(frozen=True, eq=False)
class EnrollmentStats:
    """Per-detector sufficient statistics for vectorized exact scoring, in
    read-only arrays."""

    counts: np.ndarray  # (L,) sample counts
    sums: np.ndarray  # (L, d) vector sums

    def __post_init__(self):
        object.__setattr__(self, "counts", read_only(self.counts))
        object.__setattr__(self, "sums", read_only(self.sums))


def enrollment_stats(groups: list[np.ndarray]) -> EnrollmentStats:
    counts = np.array([len(g) for g in groups], dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("every enrollment group needs at least one vector")
    return EnrollmentStats(counts=counts, sums=np.vstack([g.sum(axis=0) for g in groups]))


@dataclass(frozen=True, eq=False)
class ExactLlrTables:
    """Per-detector tables of exact scoring in the diagonal basis.

    The LLR of a test row x against detector j is
    (x'T) G1_j + (x'T)^2 G2_j + const_j; see exact_llr_tables.
    """

    T: np.ndarray  # (d, d) basis of the model
    G1: np.ndarray  # (L, d)
    G2: np.ndarray  # (L, d)
    const: np.ndarray  # (L,)


def exact_llr_tables(model: PldaModel, stats: EnrollmentStats) -> ExactLlrTables:
    """Tables that score every test row against every enrollment group.

    In the diagonal basis (x~ = T'x, mu~ = T'mu, a_j = psi mu~ + T' sums_j,
    S_j the enrollment count) the LLR separates per component k into
    c_jk + x~_k G1_jk + x~_k^2 G2_jk, with
    G1_jk = a_jk / (psi_k + S_j + 1) - psi_k mu~_k / (psi_k + 1),
    G2_jk = -S_j / (2 (psi_k + 1) (psi_k + S_j + 1)) and
    2 c_jk = log(1 + 1/psi_k) - log(1 + 1/(psi_k + S_j))
             + psi_k mu~_k^2 / (psi_k + 1) - a_jk^2 / ((psi_k + S_j)(psi_k + S_j + 1)).
    The 2 pi, log|W| and x'Wx terms cancel, so counts and sums suffice.
    """
    psi = model.psi
    mu_t = model.mu @ model.T
    psi_mu = psi * mu_t
    S = stats.counts[:, None]
    a = psi_mu + stats.sums @ model.T
    const = 0.5 * np.sum(
        np.log1p(1.0 / psi)
        - np.log1p(1.0 / (psi + S))
        + psi_mu * mu_t / (psi + 1.0)
        - a * a / ((psi + S) * (psi + S + 1.0)),
        axis=1,
    )
    return ExactLlrTables(
        T=model.T,
        G1=a / (psi + S + 1.0) - psi_mu / (psi + 1.0),
        G2=-0.5 * S / ((psi + 1.0) * (psi + S + 1.0)),
        const=const,
    )


def apply_llr_tables(tables: ExactLlrTables, X: np.ndarray) -> np.ndarray:
    """Exact LLRs of every test row against every detector: two matrix products, (N, L)."""
    Xt = np.atleast_2d(np.asarray(X, dtype=np.float64)) @ tables.T
    return Xt @ tables.G1.T + (Xt * Xt) @ tables.G2.T + tables.const


def to_pair_params(model: PldaModel) -> PairScoreParams:
    """Convert (mu, B_prec, W) into the pairwise score parameters.

    Defined by the requirement that pair_score equals exact_llr for a
    single enrollment vector. In the diagonal basis B + W and B + 2W are
    diag(psi + 1) and diag(psi + 2), so with h = 1 / ((psi + 1)(psi + 2)):
    Lambda = T diag(1 / (2 (psi + 2))) T', Gamma = -T diag(h / 2) T',
    c = -T (h psi mu~) and
    k = -log|B|/2 + log|W|/2 + sum(log(1 + psi) - log(psi + 2)/2 + h psi mu~^2).
    """
    psi, T = model.psi, model.T
    mu_t = model.mu @ T
    h = 1.0 / ((psi + 1.0) * (psi + 2.0))
    logdet_W = _chol_logdet(np.linalg.cholesky(model.W))
    logdet_B = _chol_logdet(np.linalg.cholesky(model.B_prec))
    k = 0.5 * (logdet_W - logdet_B) + float(
        np.sum(np.log1p(psi) - 0.5 * np.log(psi + 2.0) + h * psi * mu_t * mu_t)
    )
    Lam = (T * (0.5 / (psi + 2.0))) @ T.T
    Gam = -(T * (0.5 * h)) @ T.T
    return PairScoreParams(
        Lambda=0.5 * (Lam + Lam.T), Gamma=0.5 * (Gam + Gam.T), c=-T @ (h * psi * mu_t), k=k
    )


def pair_score(params: PairScoreParams, w_l: np.ndarray, w: np.ndarray) -> float:
    """2 w'Lambda w_l + w'Gamma w + w_l'Gamma w_l + w'c + w_l'c + k."""
    w_l = np.asarray(w_l, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return float(
        2.0 * w @ params.Lambda @ w_l
        + w @ params.Gamma @ w
        + w_l @ params.Gamma @ w_l
        + w @ params.c
        + w_l @ params.c
        + params.k
    )


@dataclass(frozen=True, eq=False)
class PairTables:
    """Per-model tables of pairwise scoring against fixed detectors.

    The score of a test row u against detector j is
    u'W_j + u'Gamma u + u'c + const_j; see pair_tables.
    """

    Gamma: np.ndarray  # (d, d)
    c: np.ndarray  # (d,)
    W: np.ndarray  # (d, L): 2 Lambda D'
    const: np.ndarray  # (L,): d_j'Gamma d_j + c'd_j + k


def pair_tables(Lambda, Gamma, c, k, detectors) -> PairTables:
    """The detector side of the pairwise scores of the detector rows D (L, d),
    computed once per model, from plain arrays: neither matrix need be
    symmetric."""
    D = np.atleast_2d(np.asarray(detectors, dtype=np.float64))
    const = ((D @ Gamma) * D).sum(axis=1) + D @ c + k
    return PairTables(Gamma, c, 2.0 * Lambda @ D.T, const)


def apply_pair_tables(tables: PairTables, U: np.ndarray) -> np.ndarray:
    """Pairwise scores (N, L) of every test row in U against the tables' detectors."""
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    own = ((U @ tables.Gamma) * U).sum(axis=1) + U @ tables.c
    return U @ tables.W + own[:, None] + tables.const


def pair_score_matrix(
    params: PairScoreParams, detectors: np.ndarray, U: np.ndarray
) -> np.ndarray:
    """Pairwise scores of every test row in U against every detector row: (N, L)."""
    p = params
    return apply_pair_tables(pair_tables(p.Lambda, p.Gamma, p.c, p.k, detectors), U)


def approx_llr(params: PairScoreParams, enroll: np.ndarray, test: np.ndarray) -> float:
    """Mean-enrollment approximation: score the enrollment mean as a single vector."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    if enroll.shape[0] < 1:
        raise ValueError("enrollment must be non-empty")
    return pair_score(params, enroll.mean(axis=0), test)
