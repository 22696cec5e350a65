"""Flat scoring backends.

FlatBackend is the discriminatively trainable pairwise-score backend: an
affine+length-norm preprocessing map, the four pairwise score parameters,
and one detector vector per class. GenerativeBackend keeps the full
two-covariance model and scores with the exact multi-enrollment formula.
Both score every sample against every detector.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .dataio import EmbeddingSet, group_rows, read_only
from .plda import (
    EnrollmentStats,
    ExactLlrTables,
    PairScoreParams,
    PairTables,
    PldaModel,
    apply_llr_tables,
    apply_pair_tables,
    em_train,
    enrollment_stats,
    exact_llr_tables,
    pair_tables,
    to_pair_params,
)
from .preproc import AffinePreproc, lda, normalized_projection


FLAT_KEYS = ("A", "b", "Lambda", "Gamma", "c", "k", "detectors")


def flat_forward(theta, tables: PairTables, X):
    """The flat forward pass of scoring and training: the scores (N, L) of
    every raw row of X against the detectors of the pair_tables of theta
    (FLAT_KEYS), and U and the norms of normalized_projection(A, b, X) for
    the backward pass."""
    U, norms = normalized_projection(theta["A"], theta["b"], X)
    return apply_pair_tables(tables, U), U, norms


@dataclass(frozen=True, eq=False)
class FlatBackend:
    """Detector labels and one read-only mapping theta of the stage's
    parameters, keyed FLAT_KEYS: the affine preprocessing A and b, the
    pair-score parameters Lambda, Gamma, c and k, and one detector row per
    label.

    theta is checked once, through AffinePreproc and PairScoreParams, and
    frozen over their read-only arrays: preproc, params and detectors are
    views of the same arrays, not copies. The scoring tables are built once,
    with the backend; dataclasses.replace(backend, theta=...) makes a
    backend with other parameters.
    """

    detector_labels: tuple[str, ...]
    theta: Mapping[str, np.ndarray]
    preproc: AffinePreproc = field(init=False, repr=False)
    params: PairScoreParams = field(init=False, repr=False)
    tables: PairTables = field(init=False, repr=False)

    def __post_init__(self):
        labels, theta = tuple(self.detector_labels), self.theta
        if set(theta) != set(FLAT_KEYS):
            raise ValueError(f"flat parameters must be keyed {FLAT_KEYS}, got {tuple(theta)}")
        preproc = AffinePreproc(A=theta["A"], b=theta["b"])
        params = PairScoreParams(theta["Lambda"], theta["Gamma"], theta["c"], theta["k"])
        detectors = read_only(theta["detectors"])
        L = len(labels)
        if len(set(labels)) != L or not all(isinstance(label, str) for label in labels):
            raise ValueError("detector labels must be unique strings")
        if detectors.shape != (L, preproc.out_dim):
            raise ValueError("detector matrix shape disagrees with preprocessing")
        if params.dim != preproc.out_dim:
            raise ValueError("pair-score parameter dimension disagrees with preprocessing")
        if not np.all(np.isfinite(detectors)):
            raise ValueError("detector vectors must be finite")
        arrays = (preproc.A, preproc.b, params.Lambda, params.Gamma, params.c,
                  read_only(params.k), detectors)
        object.__setattr__(self, "detector_labels", labels)
        object.__setattr__(self, "theta", MappingProxyType(dict(zip(FLAT_KEYS, arrays))))
        object.__setattr__(self, "preproc", preproc)
        object.__setattr__(self, "params", params)
        tables = pair_tables(params.Lambda, params.Gamma, params.c, params.k, detectors)
        object.__setattr__(self, "tables", tables)

    @property
    def detectors(self) -> np.ndarray:
        """(L, out_dim), one row per detector label."""
        return self.theta["detectors"]

    @property
    def n_detectors(self) -> int:
        return len(self.detector_labels)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        """Scores of every row of X (raw embedding space) against every detector."""
        return flat_forward(self.theta, self.tables, X)[0]


@dataclass(frozen=True, eq=False)
class GenerativeBackend:
    """Exact-scoring PLDA backend with per-language enrollment statistics.

    The per-detector scoring tables are built once, with the backend, from
    the model and the enrollment statistics.
    """

    preproc: AffinePreproc
    model: PldaModel
    detector_labels: tuple[str, ...]
    enroll: EnrollmentStats
    tables: ExactLlrTables = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "detector_labels", tuple(self.detector_labels))
        labels, L, d = self.detector_labels, len(self.detector_labels), self.model.dim
        if len(set(labels)) != L or not all(isinstance(label, str) for label in labels):
            raise ValueError("detector labels must be unique strings")
        if self.preproc.out_dim != d:
            raise ValueError("PLDA model dimension disagrees with preprocessing")
        counts, sums = self.enroll.counts, self.enroll.sums
        if np.shape(counts) != (L,) or np.shape(sums) != (L, d):
            raise ValueError(
                f"enrollment statistics must be counts ({L},) and sums ({L}, {d}) "
                f"for {L} detectors of dimension {d}"
            )
        if not (np.all(np.isfinite(counts)) and np.all(np.isfinite(sums))):
            raise ValueError("enrollment counts and sums must be finite")
        if not np.all(np.asarray(counts) >= 1):
            raise ValueError("every enrollment count must be at least 1")
        object.__setattr__(self, "tables", exact_llr_tables(self.model, self.enroll))

    @property
    def n_detectors(self) -> int:
        return len(self.detector_labels)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        return apply_llr_tables(self.tables, self.preproc.transform(X))


@dataclass(frozen=True, eq=False)
class GenerativeFit:
    """One generative fit: LDA preprocessing, the EM-trained PLDA, the class
    label of each training row and the preprocessed training set, projected
    once. Both backends are built from it, so one fit can serve both."""

    preproc: AffinePreproc
    model: PldaModel
    labels: list
    U: np.ndarray

    def generative_backend(self) -> GenerativeBackend:
        """Exact-scoring backend with unweighted per-class enrollment sets."""
        detector_labels, rows = group_rows(self.labels)
        return GenerativeBackend(
            preproc=self.preproc,
            model=self.model,
            detector_labels=detector_labels,
            enroll=enrollment_stats([self.U[r] for r in rows]),
        )

    def flat_backend(self) -> FlatBackend:
        """Trainable backend: pair-score parameters from the model and each
        detector the mean of its class's preprocessed (length-normalized)
        training vectors, so it reproduces the generative mean-enrollment
        scores exactly."""
        detector_labels, rows = group_rows(self.labels)
        pre, pair = self.preproc, to_pair_params(self.model)
        detectors = np.vstack([self.U[r].mean(axis=0) for r in rows])
        arrays = (pre.A, pre.b, pair.Lambda, pair.Gamma, pair.c, pair.k, detectors)
        return FlatBackend(detector_labels, dict(zip(FLAT_KEYS, arrays)))


def fit_generative(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int | None = None,
    class_labels=None,
    em_iters: int = 50,
) -> tuple[AffinePreproc, PldaModel, list[str]]:
    """LDA preprocessing plus EM-trained PLDA on the preprocessed embeddings.

    out_dim is the LDA dimension; lda's default is #classes - 1.
    """
    fit = generative_fit(train, weights, out_dim, class_labels, em_iters)
    return fit.preproc, fit.model, fit.labels


def generative_fit(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int | None = None,
    class_labels=None,
    em_iters: int = 50,
) -> GenerativeFit:
    """fit_generative's result plus the preprocessed training set; the class
    labels default to the languages."""
    labels = list(class_labels) if class_labels is not None else list(train.languages)
    preproc = lda(*train.class_stats(labels, weights), out_dim)
    U = preproc.transform(train.vectors)
    return GenerativeFit(preproc, em_train(U, labels, weights, n_iters=em_iters), labels, U)


def fit_generative_backend(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int | None = None,
    em_iters: int = 50,
) -> GenerativeBackend:
    """Weighted LDA + EM PLDA with unweighted per-language enrollment sets;
    out_dim as in fit_generative."""
    return generative_fit(train, weights, out_dim, em_iters=em_iters).generative_backend()


def init_from_generative(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int | None = None,
    class_labels=None,
    em_iters: int = 50,
) -> FlatBackend:
    """Generative initialization of the trainable backend
    (GenerativeFit.flat_backend); out_dim is as in fit_generative."""
    return generative_fit(train, weights, out_dim, class_labels, em_iters).flat_backend()
