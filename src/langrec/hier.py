"""Hierarchical backend.

A by-cluster flat stage produces cluster scores; a shared by-language
stage, fed with the embedding shifted by a per-cluster vector, produces
cluster-conditional scores. The per-language score combines the two
through posterior/prior odds in the log domain. Only the assignment of
languages to clusters is used; the sample's own cluster is never needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterMap
from .dataio import EmbeddingSet, per_language_means
from .backend import FlatBackend, init_from_generative
from .plda import pair_score_matrix
from .preproc import length_normalize


def prior_odds(p: float) -> float:
    """p / (1 - p); +inf when p == 1 (singleton case)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("prior must be in (0, 1]")
    if p == 1.0:
        return math.inf
    return p / (1.0 - p)


def combine_llr(L_c: float, L_lc: float, P_c: float, P_lc: float) -> float:
    """Combine cluster and cluster-conditional LLRs through the odds identity.

    Evaluated in the log domain. An infinite P_lc (singleton cluster,
    p(l|c) = 1) returns L_c exactly, the analytic limit; an infinite P_c
    symmetrically returns L_lc.
    """
    if not (P_c > 0.0 and P_lc > 0.0):
        raise ValueError("prior odds must be positive")
    if math.isinf(P_lc):
        return float(L_c)
    if math.isinf(P_c):
        return float(L_lc)
    a_c = L_c + math.log(P_c)
    a_lc = L_lc + math.log(P_lc)
    m = max(a_c, a_lc, 0.0)
    lse = m + math.log(math.exp(a_c - m) + math.exp(a_lc - m) + math.exp(-m))
    return L_c + L_lc + math.log(P_c + P_lc + 1.0) - lse


@dataclass
class HierBackend:
    """Two flat stages, per-cluster shift vectors, and the cluster map.

    stage1 detectors are clusters; stage2 detectors are languages with
    parameters shared across clusters. shifts rows align with stage1
    detector order and live in raw embedding space.
    """

    stage1: FlatBackend
    stage2: FlatBackend
    shifts: np.ndarray  # (C, D)
    cluster_map: ClusterMap
    # Derived per-language combination tables, aligned with stage2 detectors.
    _lang_cluster_idx: np.ndarray = field(init=False, repr=False)
    _P_c: np.ndarray = field(init=False, repr=False)
    _P_lc: np.ndarray = field(init=False, repr=False)
    _singleton: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.shifts = np.asarray(self.shifts, dtype=np.float64)
        cmap = self.cluster_map
        clusters = self.stage1.detector_labels
        if tuple(sorted(clusters)) != cmap.cluster_names:
            raise ValueError("stage1 detectors disagree with the cluster map")
        if tuple(sorted(self.stage2.detector_labels)) != cmap.languages:
            raise ValueError("stage2 detectors disagree with the cluster map languages")
        if self.shifts.shape != (len(clusters), self.stage1.preproc.in_dim):
            raise ValueError("shift matrix must be (#clusters, raw dim)")
        if self.stage2.preproc.in_dim != self.stage1.preproc.in_dim:
            raise ValueError("stages disagree on raw input dimension")
        cluster_pos = {name: i for i, name in enumerate(clusters)}
        idx, pc, plc, single = [], [], [], []
        for lang in self.stage2.detector_labels:
            cname = cmap.assignment[lang]
            idx.append(cluster_pos[cname])
            pc.append(prior_odds(cmap.p_c[cname]))
            p = cmap.p_l_given_c[lang]
            single.append(p == 1.0)
            plc.append(math.inf if p == 1.0 else prior_odds(p))
        self._lang_cluster_idx = np.array(idx, dtype=np.intp)
        self._P_c = np.array(pc, dtype=np.float64)
        self._P_lc = np.array(plc, dtype=np.float64)
        self._singleton = np.array(single, dtype=bool)

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return self.stage2.detector_labels

    @property
    def n_detectors(self) -> int:
        return len(self.stage2.detector_labels)

    def stage_scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cluster scores (N, C), cluster-conditional language scores (N, L))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        L_c = self.stage1.score_matrix(X)
        pre2 = self.stage2.preproc
        U2 = length_normalize(shifted_projection(pre2.A, pre2.b, self.shifts, X))
        L_lc = np.empty((X.shape[0], self.n_detectors))
        for ci, U in enumerate(U2):
            cols = np.flatnonzero(self._lang_cluster_idx == ci)
            L_lc[:, cols] = pair_score_matrix(self.stage2.params, self.stage2.detectors[cols], U)
        return L_c, L_lc

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        L_c, L_lc = self.stage_scores(X)
        return combine_matrix(
            L_c, L_lc, self._lang_cluster_idx, self._P_c, self._P_lc, self._singleton
        )

    def score_all(self, x: np.ndarray) -> np.ndarray:
        return self.score_matrix(np.asarray(x, dtype=np.float64)[None, :])[0]


def shifted_projection(A, b, shifts, X) -> np.ndarray:
    """Affine outputs A (x - s_c) + b of every row of X under every shift: (C, N, d).

    Evaluated as (A x + b) - A s_c, so the batch is projected once and each
    cluster subtracts one projected shift.
    """
    return (X @ A.T + b)[None, :, :] - (shifts @ A.T)[:, None, :]


def combine_matrix(L_c, L_lc, lang_cluster_idx, P_c, P_lc, singleton) -> np.ndarray:
    """Vectorized log-domain combination over an (N, L) score layout."""
    Lc_per_lang = L_c[:, lang_cluster_idx]
    out = np.where(singleton[None, :], Lc_per_lang, 0.0)
    active = ~singleton
    if active.any():
        a_c = Lc_per_lang[:, active] + np.log(P_c[active])[None, :]
        a_lc = L_lc[:, active] + np.log(P_lc[active])[None, :]
        m = np.maximum(np.maximum(a_c, a_lc), 0.0)
        lse = m + np.log(np.exp(a_c - m) + np.exp(a_lc - m) + np.exp(-m))
        out[:, active] = (
            Lc_per_lang[:, active]
            + L_lc[:, active]
            + np.log(P_c[active] + P_lc[active] + 1.0)[None, :]
            - lse
        )
    return out


def init_hier(
    train: EmbeddingSet,
    cluster_map: ClusterMap,
    weights: np.ndarray | None,
    out_dim1: int,
    out_dim2: int,
    em_iters: int = 50,
) -> HierBackend:
    """Generative initialization of the hierarchical backend.

    Shift vectors are the average of the per-language mean embeddings in
    each cluster. Stage1 is initialized with clusters as class labels;
    stage2 on the shifted embeddings with languages as class labels.
    Requires out_dim1 <= #clusters - 1 and out_dim2 <= #languages -
    #clusters (the between-class rank left after per-cluster centering).
    """
    langs = cluster_map.languages
    if tuple(train.language_inventory()) != langs:
        raise ValueError("cluster map languages disagree with the training set")
    C = cluster_map.n_clusters()
    L = len(langs)
    if L - C < 1:
        raise ValueError("hierarchy degenerate: every cluster is a singleton")
    if C < 2:
        raise ValueError("hierarchy degenerate: need at least 2 clusters")
    if out_dim1 > C - 1:
        raise ValueError(f"out_dim1 {out_dim1} exceeds rank bound #clusters-1 = {C - 1}")
    if out_dim2 > L - C:
        raise ValueError(
            f"out_dim2 {out_dim2} exceeds rank bound #languages-#clusters = {L - C}"
        )

    lang_means = per_language_means(train, weights)
    cluster_names = sorted(cluster_map.cluster_names)
    shifts = np.vstack(
        [
            np.mean([lang_means[l] for l in cluster_map.cluster_languages[name]], axis=0)
            for name in cluster_names
        ]
    )

    sample_clusters = [cluster_map.assignment[lang] for lang in train.languages]
    stage1 = init_from_generative(
        train, weights, out_dim1, class_labels=sample_clusters, em_iters=em_iters
    )

    name_pos = {name: i for i, name in enumerate(cluster_names)}
    shift_rows = np.vstack([shifts[name_pos[c]] for c in sample_clusters])
    shifted = EmbeddingSet(
        train.sample_ids, train.languages, train.datasets, train.vectors - shift_rows
    )
    stage2 = init_from_generative(shifted, weights, out_dim2, em_iters=em_iters)

    return HierBackend(stage1=stage1, stage2=stage2, shifts=shifts, cluster_map=cluster_map)
