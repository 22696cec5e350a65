"""Detection evaluation.

Actual and minimum normalized detection cost, EER, within-cluster trial
subsets, and bootstrap confidence intervals over waveform-level resampling.
Decisions accept iff score > threshold (ties reject); the DCF is normalized
by the cost of the best non-informative system, so 1.0 means uninformative
but calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .clustering import ClusterMap
from .dataio import TrialSet, check_count

MAX_REDRAWS = 10


@dataclass
class MetricReport:
    pmiss: float
    pfa: float
    actual_dcf_norm: float
    min_dcf_norm: float
    eer: float
    n_target: int
    n_nontarget: int
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        for rate in (self.pmiss, self.pfa, self.eer):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.min_dcf_norm > self.actual_dcf_norm + 1e-12:
            raise ValueError("min DCF cannot exceed actual DCF")


def bayes_threshold(p_target: float, c_miss: float = 1.0, c_fa: float = 1.0) -> float:
    """Decision threshold minimizing expected cost for calibrated LLRs."""
    if not 0.0 < p_target < 1.0:
        raise ValueError("p_target must be in (0, 1)")
    if not all(math.isfinite(c) and c > 0 for c in (c_miss, c_fa)):
        raise ValueError("costs must be finite and positive")
    return math.log(c_fa * (1.0 - p_target) / (c_miss * p_target))


def _split_scores(scores, is_target):
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    if scores.shape != is_target.shape or scores.ndim != 1:
        raise ValueError("scores and is_target must be matching 1-D arrays")
    tar = scores[is_target]
    non = scores[~is_target]
    if tar.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one non-target trial")
    return tar, non


def _dcf_normalizer(p_target, c_miss, c_fa):
    return min(c_miss * p_target, c_fa * (1.0 - p_target))


def actual_dcf(
    scores,
    is_target,
    p_target: float = 0.1,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> tuple[float, float, float]:
    """(pmiss, pfa, normalized DCF) at the Bayes threshold."""
    tar, non = _split_scores(scores, is_target)
    thr = bayes_threshold(p_target, c_miss, c_fa)
    pmiss = float(np.mean(tar <= thr))
    pfa = float(np.mean(non > thr))
    return pmiss, pfa, _normalized_dcf(pmiss, pfa, p_target, c_miss, c_fa)


def _normalized_dcf(pmiss, pfa, p_target, c_miss, c_fa):
    dcf = c_miss * p_target * pmiss + c_fa * (1.0 - p_target) * pfa
    return dcf / _dcf_normalizer(p_target, c_miss, c_fa)


def _sweep_rates(tar, non):
    """Pmiss/Pfa over every distinct decision partition, threshold ascending.

    Index i rejects the i smallest distinct score groups; i=0 accepts all
    (threshold below every score), the last index rejects all.
    """
    all_scores = np.concatenate([tar, non])
    order = np.argsort(all_scores, kind="mergesort")
    sorted_scores = all_scores[order]
    sorted_is_tar = np.concatenate([np.ones(tar.size, bool), np.zeros(non.size, bool)])[order]
    # Cut points at the end of each run of equal scores.
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    cuts = np.concatenate([[0], boundaries, [sorted_scores.size]])
    cum_tar = np.concatenate([[0], np.cumsum(sorted_is_tar)])
    pmiss = cum_tar[cuts] / tar.size
    pfa = 1.0 - (cuts - cum_tar[cuts]) / non.size
    return pmiss, pfa


def min_dcf(
    scores,
    is_target,
    p_target: float = 0.1,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> float:
    """Minimum normalized DCF over all thresholds (closure includes +-inf)."""
    tar, non = _split_scores(scores, is_target)
    pmiss, pfa = _sweep_rates(tar, non)
    dcf = c_miss * p_target * pmiss + c_fa * (1.0 - p_target) * pfa
    return float(dcf.min() / _dcf_normalizer(p_target, c_miss, c_fa))


def eer(scores, is_target) -> float:
    """Equal error rate by linear interpolation at the Pmiss = Pfa crossing."""
    tar, non = _split_scores(scores, is_target)
    pmiss, pfa = _sweep_rates(tar, non)
    diff = pmiss - pfa
    k = int(np.argmax(diff >= 0.0))  # first crossing; diff[0] = -1
    if diff[k] == 0.0:
        return float(pmiss[k])
    t = -diff[k - 1] / (diff[k] - diff[k - 1])
    return float(pmiss[k - 1] + t * (pmiss[k] - pmiss[k - 1]))


def evaluate(
    scores,
    is_target,
    p_target: float = 0.1,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> MetricReport:
    """Full metric report for one score/trial list (no bootstrap)."""
    is_target = np.asarray(is_target, dtype=bool)
    pmiss, pfa, adcf = actual_dcf(scores, is_target, p_target, c_miss, c_fa)
    return MetricReport(
        pmiss=pmiss,
        pfa=pfa,
        actual_dcf_norm=adcf,
        min_dcf_norm=min_dcf(scores, is_target, p_target, c_miss, c_fa),
        eer=eer(scores, is_target),
        n_target=int(is_target.sum()),
        n_nontarget=int((~is_target).sum()),
    )


def within_cluster_languages(cluster_map: ClusterMap, cluster_id: str) -> tuple[str, ...]:
    """The languages of a known cluster of at least two, or ValueError."""
    members = cluster_map.cluster_languages.get(cluster_id)
    if members is None:
        raise ValueError(f"unknown cluster {cluster_id!r}")
    if len(members) < 2:
        raise ValueError(f"cluster {cluster_id!r} has fewer than 2 languages")
    return members


def subset_trials(
    trials: TrialSet,
    sample_languages: Mapping[str, str],
    cluster_map: ClusterMap,
    cluster_id: str,
) -> tuple[TrialSet, np.ndarray]:
    """Within-cluster trial subset, plus the boolean mask into the input trials.

    Keeps trials whose sample language and detector language both belong to
    the cluster (within_cluster_languages).
    """
    member_set = set(within_cluster_languages(cluster_map, cluster_id))
    mask = np.array(
        [
            sample_languages[sid] in member_set and det in member_set
            for sid, det in zip(trials.sample_ids, trials.detector_languages)
        ],
        dtype=bool,
    )
    kept = np.flatnonzero(mask)
    sub = TrialSet(
        sample_ids=tuple(trials.sample_ids[i] for i in kept),
        detector_languages=tuple(trials.detector_languages[i] for i in kept),
        is_target=trials.is_target[kept],
    )
    return sub, mask


def bootstrap_ci(
    scores,
    trials: TrialSet,
    n_boot: int = 1000,
    seed: int = 0,
    p_target: float = 0.1,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the normalized actual DCF.

    Resamples at the waveform (sample_id) level: each drawn sample brings
    every one of its trials, with multiplicity. Percentiles use the
    nearest-rank rule (2.5% and 97.5%); replicates with no targets or no
    non-targets are redrawn, at most MAX_REDRAWS times. Deterministic per
    seed; each replicate uses its own derived RNG stream.
    """
    check_count("n_boot", n_boot, 1)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != len(trials):
        raise ValueError("scores and trials disagree in length")
    ids = sorted(set(trials.sample_ids))
    if len(ids) < 2:
        raise ValueError("need at least 2 distinct sample_ids")
    # A drawn sample brings all of its trials, so a replicate's DCF needs
    # only four counts per sample, weighted by how often the sample is drawn.
    pos = {sid: i for i, sid in enumerate(ids)}
    owner = np.array([pos[sid] for sid in trials.sample_ids], dtype=np.intp)
    is_target = trials.is_target
    thr = bayes_threshold(p_target, c_miss, c_fa)
    per_sample = np.vstack(
        [
            np.bincount(owner[trial_mask], minlength=len(ids))
            for trial_mask in (
                is_target,
                ~is_target,
                is_target & (scores <= thr),
                ~is_target & (scores > thr),
            )
        ]
    )

    totals = np.empty((n_boot, 4), dtype=np.int64)
    for rep in range(n_boot):
        rng = np.random.default_rng([seed, rep])
        for attempt in range(MAX_REDRAWS + 1):
            draw = rng.integers(0, len(ids), size=len(ids))
            totals[rep] = per_sample @ np.bincount(draw, minlength=len(ids))
            if totals[rep, 0] > 0 and totals[rep, 1] > 0:
                break
        else:
            raise ValueError("bootstrap replicate kept drawing degenerate trial sets")
    n_tar, n_non, misses, false_alarms = totals.T
    values = _normalized_dcf(misses / n_tar, false_alarms / n_non, p_target, c_miss, c_fa)

    values.sort()
    lo_rank = max(1, math.ceil(0.025 * n_boot))
    hi_rank = math.ceil(0.975 * n_boot)
    return float(values[lo_rank - 1]), float(values[hi_rank - 1])
