"""Embedding preprocessing chain.

A single trainable affine map (weighted LDA projection with per-component
mean/variance normalization folded in) followed by length normalization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataio import ClassStats, read_only

logger = logging.getLogger(__name__)

LENGTH_NORM_EPS = 1e-10
_COND_LIMIT = 1e10
_RIDGE_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class AffinePreproc:
    """Affine map y = A x + b in read-only arrays; callers length-normalize
    the output."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError("A must be (out_dim, in_dim) and b (out_dim,)")
        if A.shape[0] < 1 or A.shape[0] > A.shape[1]:
            raise ValueError("require 1 <= out_dim <= in_dim")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("affine parameters must be finite")
        object.__setattr__(self, "A", read_only(A))
        object.__setattr__(self, "b", read_only(b))

    @property
    def in_dim(self) -> int:
        return self.A.shape[1]

    @property
    def out_dim(self) -> int:
        return self.A.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply to a batch of row vectors, including length normalization."""
        return normalized_projection(self.A, self.b, X)[0]


class DegenerateEmbeddingError(ValueError, FloatingPointError):
    """Near-zero norm: bad data when scoring, a divergence when training."""


def row_norms(Z: np.ndarray) -> np.ndarray:
    """Norms of Z along its last axis; DegenerateEmbeddingError if one is near zero."""
    norms = np.linalg.norm(Z, axis=-1)
    if np.any(norms < LENGTH_NORM_EPS):
        raise DegenerateEmbeddingError("degenerate embedding: near-zero norm")
    return norms


def unit_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z scaled to unit norm along its last axis, and the norms (for backward passes)."""
    norms = row_norms(Z)
    return Z / norms[..., None], norms


def normalized_projection(A, b, X) -> tuple[np.ndarray, np.ndarray]:
    """unit_rows of A x + b for every row x of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != A.shape[1]:
        raise ValueError(f"expected dim {A.shape[1]}, got {X.shape[1]}")
    return unit_rows(X @ A.T + b)


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector, or each vector along the last axis, to unit Euclidean norm."""
    return unit_rows(np.asarray(v, dtype=np.float64))[0]


def apply(preproc: AffinePreproc, x: np.ndarray) -> np.ndarray:
    """lengthnorm(A x + b) for a single vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("apply expects a single vector")
    return length_normalize(preproc.A @ x + preproc.b)


def lda(classes, stats: ClassStats, out_dim: int | None = None) -> AffinePreproc:
    """Weighted LDA projection with mean/variance normalization folded in,
    from the statistics of the classes alone.

    Rows of A are the leading generalized eigenvectors of the weighted
    between-class scatter against the weighted within-class scatter, scaled
    and shifted so the projected training data has zero mean and unit
    variance per component. out_dim defaults to its rank bound,
    #classes - 1, and may not exceed it; every class needs at least two
    samples.
    """
    if out_dim is None:
        out_dim = len(classes) - 1
    if out_dim > len(classes) - 1:
        raise ValueError(
            f"out_dim {out_dim} exceeds LDA rank bound #classes-1 = {len(classes) - 1}"
        )
    if out_dim < 1:
        raise ValueError("out_dim must be >= 1")
    for cls, size in zip(classes, stats.sizes):
        if size < 2:
            raise ValueError(f"class {cls!r} has fewer than 2 samples")

    in_dim = stats.sums.shape[1]
    total_w = stats.counts.sum()
    global_mean = stats.sums.sum(axis=0) / total_w
    Dm = stats.sums / stats.counts[:, None] - global_mean
    S_b = (stats.counts[:, None] * Dm).T @ Dm / total_w
    S_w = stats.scatter / total_w
    S_tot = S_w + S_b

    # S_w is symmetric positive semi-definite: its singular values are the
    # magnitudes of its eigenvalues, which cost a fraction of an SVD.
    magnitudes = np.abs(np.linalg.eigvalsh(S_w))
    with np.errstate(over="ignore"):
        cond = magnitudes.max() / magnitudes.min() if magnitudes.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        ridge = _RIDGE_SCALE * np.trace(S_w) / in_dim
        logger.warning(
            "within-class scatter ill-conditioned (cond=%.3g); adding ridge %.3g", cond, ridge
        )
        S_w = S_w + ridge * np.eye(in_dim)

    try:
        # Only the out_dim leading directions: a fraction cheaper than all.
        eigvecs = scipy.linalg.eigh(S_b, S_w, subset_by_index=[in_dim - out_dim, in_dim - 1])[1]
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"within-class scatter is singular: {exc}") from exc
    A0 = eigvecs[:, ::-1].T
    # Sign convention: largest-magnitude component of each direction positive.
    A0 *= np.sign(A0[np.arange(out_dim), np.argmax(np.abs(A0), axis=1)])[:, None]

    # The projected training data has mean A0 g and variances diag(A0 S_tot A0').
    var_z = np.sum((A0 @ S_tot) * A0, axis=1)
    if np.any(var_z < 1e-18):
        raise ValueError("projected component has (near) zero variance")
    scale = 1.0 / np.sqrt(var_z)
    return AffinePreproc(A=scale[:, None] * A0, b=-(A0 @ global_mean) * scale)
