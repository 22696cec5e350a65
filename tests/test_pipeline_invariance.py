"""Invariances of the generative pipeline, as properties.

LDA followed by length normalization and PLDA is invariant to an invertible
affine map x -> M x + t of every embedding, and a weighted fit does not
depend on the order of its training rows. So the plda scores, the dplda and
hdplda initializations' scores, and the cluster map that tune_hierarchy
picks must not change under either, beyond rounding.

Tolerance. The rounding floor of one problem is measured on the problem
itself, before it is transformed: the largest relative score movement when
every training input moves by one ulp (x (1 +- eps), three random sign
patterns). It covers both the pipeline's response to its inputs and its
own rounding. A transformed problem is the original one with its inputs
moved by the transformation's rounding, computed in other coordinates:
- the affine map rounds each mapped row once per term of M x + t, d + 1
  ulps, and the fit in the mapped coordinates works on scatters whose
  condition numbers are up to cond(M)^2 times the original ones; so the
  tolerance is cond(M)^2 (d + 1) floors;
- a permutation reorders the sums over the rows of a class, which moves
  each by at most n ulps of its terms for a class of n rows (the classic
  bound for recursive summation), n at most the number of training rows;
  so the tolerance is n floors.
The maps have cond(M) <= 4 and the inputs' within-class scatter is well
conditioned, so no fit crosses the ridge rules of lda and EM, which are not
invariant.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.backend import generative_fit
from langrec.dataio import EmbeddingSet, balance_weights, generate_trials
from langrec.hier import init_hier
from langrec.synth import SynthConfig, generate, tune_hierarchy

SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps
EM_ITERS = 20
KINDS = ("plda", "dplda", "hdplda")


def problem(seed):
    """(train, dev, test, truth map). Three datasets split each language's
    20 training rows 7/7/6, so the balance weights differ between rows."""
    config = SynthConfig(
        dim=12, cluster_sizes=(3, 2, 1), n_datasets=3, n_train=20, n_dev=6, n_test=6, seed=seed
    )
    return generate(config)


def with_rows(s: EmbeddingSet, vectors, order=None) -> EmbeddingSet:
    order = np.arange(len(s)) if order is None else order
    pick = lambda labels: [labels[i] for i in order]  # noqa: E731
    return EmbeddingSet(pick(s.sample_ids), pick(s.languages), pick(s.datasets), vectors[order])


def fit_scores(train, test, truth) -> dict:
    """Test scores of the plda backend and the dplda and hdplda (truth map)
    initializations."""
    weights = balance_weights(train)
    fit = generative_fit(train, weights, em_iters=EM_ITERS)
    hier = init_hier(train, truth, weights, em_iters=EM_ITERS)
    return {
        "plda": fit.generative_backend().score_matrix(test.vectors),
        "dplda": fit.flat_backend().score_matrix(test.vectors),
        "hdplda": hier.score_matrix(test.vectors),
    }


def tuned_map(train, dev):
    weights = balance_weights(train)
    plda = generative_fit(train, weights, em_iters=EM_ITERS).generative_backend()
    dev_sets = [(dev, generate_trials(dev, plda.detector_labels))]
    _, hier = tune_hierarchy(train, dev_sets, weights, plda, 0.05, em_iters=EM_ITERS)
    return hier.cluster_map.cluster_languages


def movement(got, want) -> dict:
    return {k: np.abs(got[k] - want[k]).max() / np.abs(want[k]).max() for k in KINDS}


def rounding_floor(train, test, truth, base, rng) -> dict:
    floor = dict.fromkeys(KINDS, 0.0)
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size=train.vectors.shape)
        nudged = fit_scores(with_rows(train, train.vectors * (1.0 + EPS * signs)), test, truth)
        for kind, m in movement(nudged, base).items():
            floor[kind] = max(floor[kind], m)
    return floor


@SETTINGS
@given(st.integers(0, 2**16))
def test_an_affine_map_of_every_embedding_changes_no_score_and_no_tuned_map(seed):
    train, dev, test, truth = problem(seed)
    rng = np.random.default_rng(seed)
    d = train.dim
    scales = rng.uniform(0.5, 2.0, d)
    M = np.linalg.qr(rng.standard_normal((d, d)))[0] * scales  # orthogonal times diagonal
    t = rng.standard_normal(d)
    cond = scales.max() / scales.min()
    train2, dev2, test2 = (with_rows(s, s.vectors @ M.T + t) for s in (train, dev, test))

    base = fit_scores(train, test, truth)
    floor = rounding_floor(train, test, truth, base, rng)
    moved = movement(fit_scores(train2, test2, truth), base)
    for kind in KINDS:
        assert moved[kind] <= cond**2 * (d + 1) * floor[kind], (kind, moved[kind], floor[kind])
    assert tuned_map(train2, dev2) == tuned_map(train, dev)


@SETTINGS
@given(st.integers(0, 2**16))
def test_the_order_of_the_training_rows_changes_no_score_and_no_tuned_map(seed):
    train, dev, test, truth = problem(seed)
    rng = np.random.default_rng(seed)
    shuffled = with_rows(train, train.vectors, rng.permutation(len(train)))

    base = fit_scores(train, test, truth)
    floor = rounding_floor(train, test, truth, base, rng)
    moved = movement(fit_scores(shuffled, test, truth), base)
    for kind in KINDS:
        assert moved[kind] <= len(train) * floor[kind], (kind, moved[kind], floor[kind])
    assert tuned_map(shuffled, dev) == tuned_map(train, dev)
