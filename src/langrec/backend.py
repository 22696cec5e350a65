"""Flat scoring backends.

FlatBackend is the discriminatively trainable pairwise-score backend: an
affine+length-norm preprocessing map, the four pairwise score parameters,
and one detector vector per class. GenerativeBackend keeps the full
two-covariance model and scores with the exact multi-enrollment formula.
Both score every sample against every detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet
from .plda import (
    EnrollmentStats,
    PairScoreParams,
    PldaModel,
    em_train,
    enrollment_stats,
    exact_llr_matrix,
    pair_score_matrix,
    to_pair_params,
)
from .preproc import AffinePreproc, fit_lda


@dataclass
class FlatBackend:
    """Preprocessing chain, pair-score parameters, and detector vectors."""

    preproc: AffinePreproc
    params: PairScoreParams
    detector_labels: tuple[str, ...]
    detectors: np.ndarray  # (L, out_dim)

    def __post_init__(self):
        self.detector_labels = tuple(self.detector_labels)
        self.detectors = np.asarray(self.detectors, dtype=np.float64)
        L = len(self.detector_labels)
        if len(set(self.detector_labels)) != L:
            raise ValueError("detector labels must be unique")
        if self.detectors.shape != (L, self.preproc.out_dim):
            raise ValueError("detector matrix shape disagrees with preprocessing")
        if self.params.dim != self.preproc.out_dim:
            raise ValueError("pair-score parameter dimension disagrees with preprocessing")
        if not np.all(np.isfinite(self.detectors)):
            raise ValueError("detector vectors must be finite")

    @property
    def n_detectors(self) -> int:
        return len(self.detector_labels)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        """Scores of every row of X (raw embedding space) against every detector."""
        U = self.preproc.transform(X)
        return pair_score_matrix(self.params, self.detectors, U)

    def score_all(self, x: np.ndarray) -> np.ndarray:
        return self.score_matrix(np.asarray(x, dtype=np.float64)[None, :])[0]


@dataclass
class GenerativeBackend:
    """Exact-scoring PLDA backend with per-language enrollment statistics."""

    preproc: AffinePreproc
    model: PldaModel
    detector_labels: tuple[str, ...]
    enroll: EnrollmentStats

    def __post_init__(self):
        self.detector_labels = tuple(self.detector_labels)
        L, d = len(self.detector_labels), self.model.dim
        if len(set(self.detector_labels)) != L:
            raise ValueError("detector labels must be unique")
        if self.preproc.out_dim != d:
            raise ValueError("PLDA model dimension disagrees with preprocessing")
        counts, sums, sq_terms = self.enroll.counts, self.enroll.sums, self.enroll.sq_terms
        if np.shape(counts) != (L,) or np.shape(sums) != (L, d) or np.shape(sq_terms) != (L,):
            raise ValueError(
                f"enrollment statistics must be counts ({L},), sums ({L}, {d}) "
                f"and sq_terms ({L},) for {L} detectors of dimension {d}"
            )
        if not np.all(np.asarray(counts) >= 1):
            raise ValueError("every enrollment count must be at least 1")

    @property
    def n_detectors(self) -> int:
        return len(self.detector_labels)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        U = self.preproc.transform(X)
        return exact_llr_matrix(self.model, self.enroll, U)

    def score_all(self, x: np.ndarray) -> np.ndarray:
        return self.score_matrix(np.asarray(x, dtype=np.float64)[None, :])[0]


def fit_generative(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int,
    class_labels=None,
    em_iters: int = 50,
) -> tuple[AffinePreproc, PldaModel, list[str]]:
    """LDA preprocessing plus EM-trained PLDA on the preprocessed embeddings."""
    labels = list(class_labels) if class_labels is not None else list(train.languages)
    preproc = fit_lda(train.vectors, labels, weights, out_dim)
    U = preproc.transform(train.vectors)
    model = em_train(U, labels, weights, n_iters=em_iters)
    return preproc, model, labels


def fit_generative_backend(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int,
    em_iters: int = 50,
) -> GenerativeBackend:
    """Weighted LDA + EM PLDA with unweighted per-language enrollment sets."""
    preproc, model, labels = fit_generative(train, weights, out_dim, None, em_iters)
    U = preproc.transform(train.vectors)
    labels_arr = np.array(labels, dtype=object)
    detector_labels = tuple(sorted(set(labels)))
    groups = [U[labels_arr == lab] for lab in detector_labels]
    return GenerativeBackend(
        preproc=preproc,
        model=model,
        detector_labels=detector_labels,
        enroll=enrollment_stats(model, groups),
    )


def init_from_generative(
    train: EmbeddingSet,
    weights: np.ndarray | None,
    out_dim: int,
    class_labels=None,
    em_iters: int = 50,
) -> FlatBackend:
    """Generative initialization of the trainable backend.

    The pair-score parameters come from the EM-trained model and each
    detector vector is the mean of the fully preprocessed (length-
    normalized) training vectors of its class, so at initialization the
    backend reproduces the generative mean-enrollment scores exactly.
    """
    preproc, model, labels = fit_generative(train, weights, out_dim, class_labels, em_iters)
    U = preproc.transform(train.vectors)
    labels_arr = np.array(labels, dtype=object)
    detector_labels = tuple(sorted(set(labels)))
    detectors = np.vstack([U[labels_arr == lab].mean(axis=0) for lab in detector_labels])
    return FlatBackend(
        preproc=preproc,
        params=to_pair_params(model),
        detector_labels=detector_labels,
        detectors=detectors,
    )
