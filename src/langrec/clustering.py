"""Pre-training language clustering.

Per-language mean embeddings are compared with a PLDA pair score turned
into a distance (negated LLR), then grouped by average-linkage
agglomerative clustering cut at a distance threshold. Unclustered
languages remain singleton clusters. Each cluster is named after its
lexicographically smallest language, and ties between merge candidates are
broken by the lexicographically smallest cluster-name pair so the result
is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .plda import PldaModel, pair_score_matrix, to_pair_params
from .preproc import AffinePreproc


@dataclass(frozen=True)
class MergeStep:
    step: int
    left: str
    right: str
    distance: float


@dataclass(frozen=True)
class ClusterMap:
    """Partition of languages into named clusters, and the detection priors
    it implies.

    cluster_languages maps each cluster name to its languages; any mapping
    of sequences is accepted and stored as a dict of tuples, names and
    members sorted. Derived from it: assignment (language -> cluster), the
    cluster prior p_c = cluster size / #languages and the uniform
    within-cluster prior p_l_given_c = 1 / cluster size. A cluster must be
    non-empty and a language may appear only once.
    """

    cluster_languages: dict[str, tuple[str, ...]]
    threshold: float | None = None
    assignment: dict[str, str] = field(init=False)
    p_c: dict[str, float] = field(init=False)
    p_l_given_c: dict[str, float] = field(init=False)

    def __post_init__(self):
        clusters = {
            name: tuple(sorted(self.cluster_languages[name]))
            for name in sorted(self.cluster_languages)
        }
        if not clusters:
            raise ValueError("empty partition")
        assignment = {}
        for name, members in clusters.items():
            if not members:
                raise ValueError(f"cluster {name!r} is empty")
            for lang in members:
                if lang in assignment:
                    raise ValueError(
                        f"language {lang!r} appears in cluster {assignment[lang]!r} "
                        f"and again in {name!r}"
                    )
                assignment[lang] = name
        object.__setattr__(self, "cluster_languages", clusters)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(
            self, "p_c", {name: len(m) / len(assignment) for name, m in clusters.items()}
        )
        object.__setattr__(
            self, "p_l_given_c", {l: 1.0 / len(clusters[c]) for l, c in assignment.items()}
        )

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.assignment))

    @property
    def cluster_names(self) -> tuple[str, ...]:
        return tuple(self.cluster_languages)

    def n_clusters(self) -> int:
        return len(self.cluster_languages)


cluster_priors = ClusterMap


def plda_distance_matrix(
    means: Mapping[str, np.ndarray], model: PldaModel, preproc: AffinePreproc
) -> tuple[list[str], np.ndarray]:
    """Negated pairwise PLDA scores between preprocessed language means.

    Returns the sorted language list and the symmetric distance matrix with
    a -inf sentinel on the (unused) diagonal.
    """
    langs = sorted(means)
    if len(langs) < 2:
        raise ValueError("need at least 2 languages")
    M = np.vstack([preproc.transform(np.asarray(means[l])[None, :])[0] for l in langs])
    params = to_pair_params(model)
    scores = pair_score_matrix(params, M, M)
    dist = -0.5 * (scores + scores.T)
    np.fill_diagonal(dist, -np.inf)
    return langs, dist


def linkage_merges(labels: Sequence[str], dist: np.ndarray) -> list[MergeStep]:
    """Full average-linkage merge sequence down to a single cluster.

    Linkage between clusters is the average of the original pairwise
    distances across them. Cluster names are their lexicographically
    smallest member.
    """
    labels = list(labels)
    n = len(labels)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (n, n):
        raise ValueError("distance matrix shape disagrees with labels")
    if n >= 2:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dist[off] - dist.T[off]).max() > 1e-12:
            raise ValueError("distance matrix must be symmetric")

    def linkage(a, b):
        return float(np.mean(dist[np.ix_(members[a], members[b])]))

    # Clusters by id, in merge-list order; link caches the linkage of every
    # pair (a, b) with a before b, so a merge computes only the new cluster's.
    members = {i: [i] for i in range(n)}
    names = dict(enumerate(labels))
    order = list(range(n))
    link = {(a, b): linkage(a, b) for i, a in enumerate(order) for b in order[i + 1 :]}
    merges = []
    while len(order) > 1:
        best = None
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                key = (link[a, b], tuple(sorted((names[a], names[b]))))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d, pair), a, b = best
        merges.append(MergeStep(step=len(merges), left=pair[0], right=pair[1], distance=d))
        new = len(members)
        members[new] = members[a] + members[b]
        names[new] = pair[0]
        order = [k for k in order if k not in (a, b)]
        link.update({(k, new): linkage(k, new) for k in order})
        order.append(new)
    return merges


def agglomerate(labels: Sequence[str], dist: np.ndarray, threshold: float) -> ClusterMap:
    """Average-linkage clustering cut where the smallest linkage exceeds threshold."""
    return cut_merges(labels, linkage_merges(labels, dist), threshold)


def cut_merges(labels: Sequence[str], merges: Sequence[MergeStep], threshold: float) -> ClusterMap:
    """The clusters of a linkage_merges sequence, applied up to the first merge
    whose distance exceeds threshold."""
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in merges:
        if step.distance > threshold:
            break
        a, b = find(step.left), find(step.right)
        root = min(a, b)
        parent[a] = root
        parent[b] = root

    groups: dict[str, list[str]] = {}
    for lab in labels:
        groups.setdefault(find(lab), []).append(lab)
    return ClusterMap(groups, threshold)


def merges_to_tsv(merges: Sequence[MergeStep]) -> str:
    lines = ["step\tleft\tright\tdistance"]
    for m in merges:
        lines.append(f"{m.step}\t{m.left}\t{m.right}\t{'%.17g' % m.distance}")
    return "\n".join(lines) + "\n"


def cluster_map_to_doc(cmap: ClusterMap) -> dict:
    return {
        "clusters": {name: list(cmap.cluster_languages[name]) for name in cmap.cluster_names},
        "threshold": cmap.threshold,
    }


def cluster_map_to_json(cmap: ClusterMap) -> str:
    return json.dumps(cluster_map_to_doc(cmap), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def cluster_map_from_doc(doc) -> ClusterMap:
    """Inverse of cluster_map_to_doc. Raises ValueError unless `clusters`
    maps names to lists of language names and `threshold` is a number or
    null."""
    if not isinstance(doc, dict) or "clusters" not in doc:
        raise ValueError("cluster map JSON lacks 'clusters'")
    clusters = doc["clusters"]
    if not isinstance(clusters, dict):
        raise ValueError("'clusters' must map each cluster name to a list of languages")
    for name, members in clusters.items():
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise ValueError(f"cluster {name!r} must be a list of language names")
    threshold = doc.get("threshold")
    if threshold is not None and (
        isinstance(threshold, bool) or not isinstance(threshold, (int, float))
    ):
        raise ValueError(f"threshold must be a number or null, got {threshold!r}")
    return ClusterMap(clusters, threshold)
