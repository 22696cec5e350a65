"""Class statistics pooled from per-language statistics, and their reuse.

Every generative fit takes its LDA from the class statistics of
EmbeddingSet.class_stats, pooled from the statistics of each language
(labels that split a language are summed from their rows). The properties
below compare them with statistics summed over the rows of each class, and
check that the per-language statistics a set keeps never leak into a fit
with other weights or on another set, or let the scale of the weights reach
a fit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.backend import generative_fit
from langrec.dataio import EmbeddingSet, balance_weights, class_stats, group_rows
from langrec.hier import init_hier
from langrec.plda import em_train
from langrec.preproc import lda
from langrec.synth import SynthConfig, generate

from test_preproc import fit_lda

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def close(got, want, rtol=1e-12):
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), np.finfo(float).tiny)


@st.composite
def labelled_sets(draw):
    """(set, weights, per-row labels, per-row cluster index, shifts (C, d)).

    The labels are either the language's cluster (two clusters or more) or,
    to split every language, one of two labels taken in turn; every class of
    either kind has two rows or more.
    """
    d = draw(st.integers(1, 6))
    assignments = st.lists(st.integers(0, 3), min_size=2, max_size=7)
    drawn = draw(assignments.filter(lambda c: len(set(c)) > 1))
    n_per = draw(st.integers(4, 9))
    split = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, cluster_of = np.unique(drawn, return_inverse=True)
    C = max(cluster_of) + 1
    centers = 3.0 * rng.standard_normal((C, d))
    langs, clusters, vecs = [], [], []
    for l, c in enumerate(cluster_of):
        mean = centers[c] + rng.standard_normal(d)
        vecs.append(mean + rng.uniform(0.1, 1.0) * rng.standard_normal((n_per, d)))
        langs += [f"l{l}"] * n_per
        clusters += [c] * n_per
    n = len(langs)
    train = EmbeddingSet([f"s{i}" for i in range(n)], langs, ["d"] * n, np.vstack(vecs))
    if split:
        labels = [f"k{i % 2}" for i in range(n)]  # two classes, each in every language
    else:
        labels = [f"c{c}" for c in clusters]
    weights = rng.uniform(0.2, 5.0, size=n)
    shifts = centers + 0.1 * rng.standard_normal((C, d))
    return train, weights, labels, np.array(clusters), shifts


@SETTINGS
@given(labelled_sets())
def test_pooled_statistics_match_class_statistics_of_the_rows(problem):
    train, weights, labels, _, _ = problem
    classes, got = train.class_stats(labels, weights)
    want_classes, rows = group_rows(labels)
    want = class_stats(train.vectors, rows, weights)
    assert classes == want_classes
    assert np.array_equal(got.sizes, want.sizes)
    for name in ("counts", "sums", "scatter"):
        assert close(getattr(got, name), getattr(want, name)), name


@SETTINGS
@given(labelled_sets())
def test_shifted_statistics_match_an_explicitly_shifted_set(problem):
    train, weights, _, clusters, shifts = problem
    languages, stats = train.class_stats(train.languages, weights)
    lang_cluster = [clusters[train.languages.index(l)] for l in languages]
    got = stats.shifted(shifts[lang_cluster])
    shifted = EmbeddingSet(
        train.sample_ids, train.languages, train.datasets, train.vectors - shifts[clusters]
    )
    want = shifted.class_stats(shifted.languages, weights)[1]
    assert np.array_equal(got.counts, want.counts)
    assert close(got.sums, want.sums)
    assert close(got.scatter, want.scatter)


@SETTINGS
@given(labelled_sets())
def test_lda_from_statistics_standardizes_the_training_data(problem):
    train, weights, labels, _, _ = problem
    classes, stats = train.class_stats(labels, weights)
    p = lda(classes, stats, min(len(classes) - 1, train.dim))
    Z = train.vectors @ p.A.T + p.b
    m = weights @ Z / weights.sum()
    v = weights @ (Z - m) ** 2 / weights.sum()
    assert np.abs(m).max() < 1e-8
    assert np.abs(v - 1.0).max() < 1e-6


def desk_set(seed=0):
    return generate(SynthConfig(dim=8, cluster_sizes=(3, 2, 1), n_train=20, seed=seed))[0::3]


def fit_bytes(train, truth, weights) -> bytes:
    """Every array of a flat and a hierarchical fit, and their scores."""
    flat = generative_fit(train, weights)
    hier = init_hier(train, truth, weights)
    parts = [flat.preproc.A, flat.preproc.b, flat.model.W, flat.model.B_prec, flat.U]
    parts += [flat.generative_backend().score_matrix(train.vectors)]
    parts += [hier.shifts, hier.score_matrix(train.vectors)]
    for stage in (hier.stage1, hier.stage2):
        parts += [stage.preproc.A, stage.preproc.b, stage.params.Lambda, stage.detectors]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


def fresh(train: EmbeddingSet) -> EmbeddingSet:
    return EmbeddingSet(train.sample_ids, train.languages, train.datasets, train.vectors)


def test_kept_statistics_never_serve_other_weights():
    train, truth = desk_set()
    w = balance_weights(train)
    w = w * np.random.default_rng(0).uniform(0.5, 2.0, size=len(w))
    perm = np.random.default_rng(1).permutation(len(w))
    for weights in (w, 2.0 * w, w[perm], None, w):
        assert fit_bytes(train, truth, weights) == fit_bytes(fresh(train), truth, weights)


def test_kept_statistics_give_the_first_fit_bit_for_bit(monkeypatch):
    import langrec.dataio as dataio

    def no_pass(*args):
        raise AssertionError("the kept per-language statistics were computed again")

    train, truth = desk_set()
    weights = balance_weights(train)
    first = fit_bytes(train, truth, weights)
    monkeypatch.setattr(dataio, "class_stats", no_pass)
    assert fit_bytes(train, truth, weights) == first


def test_each_set_keeps_its_own_statistics():
    # Sets of one shape and one weight vector, built and dropped in turn: an
    # object id can come back, the statistics of a dropped set must not.
    base, _ = desk_set()
    weights = balance_weights(base)
    rng = np.random.default_rng(2)
    for _ in range(6):
        vectors = base.vectors + rng.standard_normal(base.vectors.shape)
        train = EmbeddingSet(base.sample_ids, base.languages, base.datasets, vectors)
        got = generative_fit(train, weights).preproc
        want = fit_lda(vectors, base.languages, weights)
        assert got.A.tobytes() == want.A.tobytes() and got.b.tobytes() == want.b.tobytes()
        del train


@SETTINGS
@given(labelled_sets(), st.integers(-60, 60).filter(bool))
def test_em_fit_does_not_depend_on_a_power_of_two_weight_scale(problem, k):
    # em_train normalises the weights to mean one, which is exact for 2^k.
    train, weights, labels, _, _ = problem
    fits = [em_train(train.vectors, labels, w) for w in (weights, weights * 2.0**k)]
    for name in ("mu", "B_prec", "W"):
        assert getattr(fits[0], name).tobytes() == getattr(fits[1], name).tobytes(), name


@settings(SETTINGS, max_examples=12)
@given(st.integers(0, 5), st.integers(-20, 20).filter(bool))
def test_fits_do_not_depend_on_a_power_of_four_weight_scale(seed, j):
    # lda and class_stats see the weights unnormalised: a scale of 4^j has
    # the exact square root 2^j; an odd power of two moves scores at 1e-13.
    train, truth = desk_set(seed)
    weights = balance_weights(train)
    weights = weights * np.random.default_rng(seed).uniform(0.5, 2.0, size=len(weights))
    assert fit_bytes(train, truth, weights) == fit_bytes(fresh(train), truth, weights * 4.0**j)
