"""Property tests of the hierarchical scorer and the batched pair scorer.

HierBackend projects the raw batch once and subtracts one projected shift
per cluster. The reference below does not fold: it shifts every row by its
cluster vector, projects and length-normalises it with the stage's
preprocessing, scores each (row, language) pair with the scalar pair_score
and combines the two stages with the scalar combine_llr. Random backends
have 2-4 clusters of 1-4 languages, always including a singleton cluster,
whose languages interleave in detector order. The gradients of the
hierarchical loss are checked against finite differences at random
parameters on the same backends.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.backend import FlatBackend
from langrec.clustering import cluster_priors
from langrec.hier import HierBackend, combine_llr, prior_odds
from langrec.plda import PairScoreParams, pair_score, pair_score_matrix
from langrec.preproc import AffinePreproc
from langrec.training import get_params, hier_loss_grads

from test_training import finite_difference_check, random_symmetric

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_stage(rng, labels, in_dim, out_dim):
    return FlatBackend(
        preproc=AffinePreproc(
            A=rng.standard_normal((out_dim, in_dim)), b=0.3 * rng.standard_normal(out_dim)
        ),
        params=PairScoreParams(
            Lambda=random_symmetric(rng, out_dim, 0.5),
            Gamma=random_symmetric(rng, out_dim, 0.3),
            c=0.3 * rng.standard_normal(out_dim),
            k=float(rng.standard_normal()),
        ),
        detector_labels=labels,
        detectors=rng.standard_normal((len(labels), out_dim)),
    )


@st.composite
def hier_problems(draw, max_dim=12):
    """(HierBackend, raw test rows, label indices). Clusters hold 1-4 languages,
    one is always a singleton, and the language names are permuted, so most
    clusters interleave in detector order and are padded in the stage-2 layout."""
    sizes = [1] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    in_dim = draw(st.integers(2, max_dim))
    out1 = draw(st.integers(1, in_dim))
    out2 = draw(st.integers(1, in_dim))
    n_rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"l{i:02d}" for i in rng.permutation(sum(sizes))]
    ends = np.cumsum(sizes)
    parts = [names[end - size : end] for size, end in zip(sizes, ends)]
    cmap = cluster_priors({min(p): tuple(p) for p in parts})
    backend = HierBackend(
        stage1=random_stage(rng, cmap.cluster_names, in_dim, out1),
        stage2=random_stage(rng, cmap.languages, in_dim, out2),
        shifts=rng.standard_normal((len(sizes), in_dim)),
        cluster_map=cmap,
    )
    X = rng.standard_normal((n_rows, in_dim))
    return backend, X, rng.integers(0, len(names), size=n_rows)


def unfolded_scores(backend, X):
    s1, s2, cmap = backend.stage1, backend.stage2, backend.cluster_map
    out = np.empty((len(X), backend.n_detectors))
    for i, x in enumerate(X):
        u1 = s1.preproc.transform(x)[0]
        for j, lang in enumerate(backend.detector_labels):
            cname = cmap.assignment[lang]
            ci = s1.detector_labels.index(cname)
            u2 = s2.preproc.transform(x - backend.shifts[ci])[0]
            p_lc = cmap.p_l_given_c[lang]
            out[i, j] = combine_llr(
                pair_score(s1.params, s1.detectors[ci], u1),
                pair_score(s2.params, s2.detectors[j], u2),
                prior_odds(cmap.p_c[cname]),
                math.inf if p_lc == 1.0 else prior_odds(p_lc),
            )
    return out


@SETTINGS
@given(hier_problems())
def test_folded_scores_match_unfolded_reference(problem):
    backend, X, _ = problem
    got = backend.score_matrix(X)
    want = unfolded_scores(backend, X)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@SETTINGS
@given(hier_problems())
def test_single_row_equals_its_batched_row(problem):
    backend, X, _ = problem
    batch = backend.score_matrix(X)
    for i in range(len(X)):
        row = backend.score_matrix(X[i : i + 1])[0]
        assert np.all(np.abs(row - batch[i]) <= 1e-12 * np.maximum(1.0, np.abs(batch[i])))


def test_problems_cover_gaps_and_padding():
    """The strategy draws clusters that are not contiguous in detector order and
    clusters of different sizes, which the padded stage-2 layout must handle."""
    seen_gap = seen_pad = False

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(hier_problems())
    def look(problem):
        nonlocal seen_gap, seen_pad
        info = problem[0].combine
        sizes = np.bincount(info.lang_cluster_idx)[info.blocks]
        seen_pad |= bool(np.any(sizes < info.pad_cols.shape[1]))
        seen_gap |= any(
            np.any(np.diff(np.flatnonzero(info.lang_cluster_idx == c)) > 1)
            for c in info.blocks
        )

    look()
    assert seen_gap and seen_pad


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(hier_problems())
def test_pad_tables_index_each_language_once(problem):
    """The languages of clusters of two or more are the conditional columns;
    each sits once in the padded layout, in its own cluster's block."""
    info = problem[0].combine
    sizes = np.bincount(info.lang_cluster_idx)
    assert np.array_equal(info.blocks, np.flatnonzero(sizes > 1))
    assert np.array_equal(info.cond, np.flatnonzero(sizes[info.lang_cluster_idx] > 1))
    assert np.array_equal(info.pad_cols.ravel()[info.pad_pos], info.cond)
    block, slot = np.divmod(info.pad_pos, info.pad_cols.shape[1])
    assert np.array_equal(info.blocks[block], info.lang_cluster_idx[info.cond])
    for b, row in enumerate(info.pad_cols):
        n = sizes[info.blocks[b]]
        assert sorted(slot[block == b]) == list(range(n))
        assert np.array_equal(row[n:], np.zeros(len(row) - n))


def test_all_singleton_map_scores_stage1_and_has_no_stage2():
    """With every cluster a singleton there are no blocks: the scores are the
    stage-1 scores bit for bit, and no stage-2 or shift parameter gets a
    gradient."""
    rng = np.random.default_rng(0)
    cmap = cluster_priors({l: (l,) for l in ("a", "b", "c")})
    backend = HierBackend(
        stage1=random_stage(rng, cmap.cluster_names, 6, 2),
        stage2=random_stage(rng, cmap.languages, 6, 3),
        shifts=rng.standard_normal((3, 6)),
        cluster_map=cmap,
    )
    X = rng.standard_normal((7, 6))
    assert backend.score_matrix(X).tobytes() == backend.stage1.score_matrix(X).tobytes()
    y = rng.integers(0, 3, size=7)
    _, grads = hier_loss_grads(get_params(backend), backend.combine, X, y, pi=0.1, alpha=0.3)
    for key, g in grads.items():
        if key.startswith("stage2.") or key == "shifts":
            assert not np.any(g), key


@SETTINGS
@given(hier_problems(max_dim=5), st.sampled_from([0.0, 0.3]))
def test_hier_gradients_match_finite_differences(problem, alpha):
    backend, X, y = problem
    info = backend.combine

    def loss_fn(p):
        return hier_loss_grads(p, info, X, y, pi=0.1, alpha=alpha)

    assert finite_difference_check(loss_fn, get_params(backend)) <= 1e-4


@st.composite
def pair_problems(draw):
    """(pair-score parameters, detector rows, test rows) with d up to 64."""
    d = draw(st.integers(1, 64))
    n_det = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = PairScoreParams(
        Lambda=random_symmetric(rng, d, 0.5),
        Gamma=random_symmetric(rng, d, 0.3),
        c=rng.standard_normal(d),
        k=float(rng.standard_normal()),
    )
    return params, rng.standard_normal((n_det, d)), rng.standard_normal((n_rows, d))


@SETTINGS
@given(pair_problems())
def test_pair_score_matrix_matches_scalar_pair_score(problem):
    params, dets, U = problem
    got = pair_score_matrix(params, dets, U)
    want = np.array([[pair_score(params, w_l, u) for w_l in dets] for u in U])
    # Rounding is relative to the sum of the terms' magnitudes, which the
    # score of the entry-wise absolute values bounds.
    magnitude = pair_score_matrix(
        PairScoreParams(
            np.abs(params.Lambda), np.abs(params.Gamma), np.abs(params.c), abs(params.k)
        ),
        np.abs(dets),
        np.abs(U),
    )
    assert np.all(np.abs(got - want) <= 1e-12 * magnitude)
