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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from langrec.backend import FlatBackend
from langrec.clustering import cluster_priors
from langrec.hier import (
    HierBackend, combine_llr, combine_matrix, prior_odds, stage2_scores, stage2_tables,
)
from langrec.plda import PairScoreParams, pair_score, pair_score_matrix
from langrec.preproc import DegenerateEmbeddingError
from langrec.training import get_params, hier_loss_grads

from test_training import build_hier_backend, finite_difference_check, random_symmetric

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_stage(rng, labels, in_dim, out_dim):
    return FlatBackend(
        labels,
        {
            "A": rng.standard_normal((out_dim, in_dim)),
            "b": 0.3 * rng.standard_normal(out_dim),
            "Lambda": random_symmetric(rng, out_dim, 0.5),
            "Gamma": random_symmetric(rng, out_dim, 0.3),
            "c": 0.3 * rng.standard_normal(out_dim),
            "k": rng.standard_normal(),
            "detectors": rng.standard_normal((len(labels), out_dim)),
        },
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


def test_problems_cover_gaps_and_uneven_blocks():
    """The strategy draws clusters that are not contiguous in detector order and
    blocks of different sizes in one map."""
    seen_gap = seen_uneven = False

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(hier_problems())
    def look(problem):
        nonlocal seen_gap, seen_uneven
        info = problem[0].combine
        sizes = np.bincount(info.cond_block)
        seen_uneven |= bool(sizes.size and sizes.min() < sizes.max())
        seen_gap |= any(
            np.any(np.diff(np.flatnonzero(info.lang_cluster_idx == c)) > 1)
            for c in info.blocks
        )

    look()
    assert seen_gap and seen_uneven


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(hier_problems())
def test_block_index_places_each_language_in_its_cluster(problem):
    """The languages of clusters of two or more are the conditional columns,
    in detector order; the column-to-block index sends each to its own
    cluster's block, and every member of a block is a conditional column."""
    info = problem[0].combine
    sizes = np.bincount(info.lang_cluster_idx)
    assert np.array_equal(info.blocks, np.flatnonzero(sizes > 1))
    assert np.array_equal(info.cond, np.flatnonzero(sizes[info.lang_cluster_idx] > 1))
    assert info.cond_block.shape == info.cond.shape
    assert np.array_equal(info.blocks[info.cond_block], info.lang_cluster_idx[info.cond])
    assert np.array_equal(
        np.bincount(info.cond_block, minlength=len(info.blocks)), sizes[info.blocks]
    )


def unfloored_combination(L_c, L_lc, info):
    """combine_matrix with no exponent floor, as first written: the scores,
    e_c = e^(a_c - m), e_lc = e^(a_lc - m) and their total, whose exps may be
    subnormal or 0."""
    S = L_c.take(info.lang_cluster_idx, axis=1)
    Lc_cond = S.take(info.cond, axis=1)
    a_c = Lc_cond + info.log_P_c
    a_lc = L_lc + info.log_P_lc
    m = np.maximum(np.maximum(a_c, a_lc), 0.0)
    e_c, e_lc = np.exp(a_c - m), np.exp(a_lc - m)
    total = e_c + e_lc + np.exp(-m)
    lse = m + np.log(total)
    S[:, info.cond] = Lc_cond + L_lc + info.log_norm - lse
    return S, e_c, e_lc, total


@SETTINGS
@given(hier_problems(), st.sampled_from([1.0, 30.0, 300.0, 1000.0]), st.integers(0, 2**32 - 1))
def test_exponent_floor_changes_no_score_or_derivative(problem, scale, seed):
    """Stage scores uniform in (-scale, scale) put the exp arguments of the
    combination across (-2 scale, 0], so at scale 1000 across (-2000, 0]: many
    below EXP_FLOOR, some subnormal. The scores and the derivatives
    1 - e / total are the unfloored formula's, bit for bit."""
    backend, X, _ = problem
    info = backend.combine
    rng = np.random.default_rng(seed)
    L_c = scale * rng.uniform(-1.0, 1.0, (len(X), len(backend.shifts)))
    L_lc = scale * rng.uniform(-1.0, 1.0, (len(X), len(info.cond)))
    S, e, total = combine_matrix(L_c, L_lc, info)
    want_S, e_c, e_lc, want_total = unfloored_combination(L_c, L_lc, info)
    assert S.tobytes() == want_S.tobytes()
    want_d = np.stack((1.0 - e_c / want_total, 1.0 - e_lc / want_total))
    assert (1.0 - e / total).tobytes() == want_d.tobytes()


def padded_scores(backend, X):
    """The hierarchical scores through the padded stage-2 layout: every
    block's rows A (x - s_b) + b, projected once and length-normalised,
    are scored against its members' detectors padded with detector 0 to the
    largest block, (B, N, m), and each conditional column is gathered from
    its slot."""
    s2, info = backend.stage2, backend.combine
    Z = X @ s2.preproc.A.T + s2.preproc.b
    D = Z[None, :, :] - (backend.shifts @ s2.preproc.A.T)[info.blocks][:, None, :]
    U = D / np.linalg.norm(D, axis=-1)[..., None]
    block = info.cond_block
    slot = np.array([np.count_nonzero(block[:k] == b) for k, b in enumerate(block)])
    pad_cols = np.zeros((len(info.blocks), slot.max() + 1), dtype=np.intp)
    pad_cols[block, slot] = info.cond
    p = s2.params
    V = s2.detectors[pad_cols]  # (B, m, d)
    S = (
        2.0 * np.einsum("bnd,de,bme->bnm", U, p.Lambda, V)
        + np.einsum("bnd,de,bne->bn", U, p.Gamma, U)[:, :, None]
        + np.einsum("bmd,de,bme->bm", V, p.Gamma, V)[:, None, :]
        + (U @ p.c)[:, :, None]
        + (V @ p.c)[:, None, :]
        + p.k
    )
    L_lc = S[block, :, slot].T
    return combine_matrix(backend.stage1.score_matrix(X), L_lc, info)[0]


def test_uneven_map_matches_padded_layout_and_single_rows():
    """Blocks of 4, 3, 2 and 2 languages and three singletons, interleaved in
    detector order, at small dimension."""
    rng = np.random.default_rng(3)
    sizes = [4, 3, 2, 2, 1, 1, 1]
    names = [f"l{i:02d}" for i in rng.permutation(sum(sizes))]
    ends = np.cumsum(sizes)
    cmap = cluster_priors(
        {min(p): tuple(p) for p in (names[e - n : e] for n, e in zip(sizes, ends))}
    )
    backend = HierBackend(
        stage1=random_stage(rng, cmap.cluster_names, 7, 5),
        stage2=random_stage(rng, cmap.languages, 7, 6),
        shifts=rng.standard_normal((len(sizes), 7)),
        cluster_map=cmap,
    )
    X = rng.standard_normal((11, 7))
    batch = backend.score_matrix(X)
    scale = np.maximum(1.0, np.abs(batch))
    assert np.all(np.abs(batch - padded_scores(backend, X)) <= 1e-12 * scale)
    for i in range(len(X)):
        row = backend.score_matrix(X[i : i + 1])[0]
        assert np.all(np.abs(row - batch[i]) <= 1e-12 * scale[i])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hier_problems(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_rows_near_a_shift_keep_difference_accuracy(problem, k, seed):
    """A row whose stage-2 input A (x - s_b) + b has norm n = 10^-k |z|, with
    z = A x + b, in a block b. The expanded terms cancel there, but only to a
    small multiple of eps |z| / n of each term's scale, as the difference
    (A x + b) - A s_b itself does. Reference: the difference, normalised,
    scored with the scalar pair_score."""
    backend, _, _ = problem
    info, s2 = backend.combine, backend.stage2
    assume(len(info.blocks) > 0)
    rng = np.random.default_rng(seed)
    A, b, p = s2.preproc.A, s2.preproc.b, s2.params
    blk = int(rng.integers(len(info.blocks)))
    s = backend.shifts[info.blocks[blk]]
    direction = rng.standard_normal(len(b))
    target = 10.0**-k * np.linalg.norm(A @ s) * direction / np.linalg.norm(direction)
    x = s + np.linalg.pinv(A) @ (target - b)
    z = A @ x + b
    D = z - A @ s
    n = np.linalg.norm(D)
    assume(n > 1e-9)
    tables = stage2_tables(s2.theta, backend.shifts, info)
    got = stage2_scores(tables, info, x[None, :])[0][0]
    eps = np.finfo(float).eps
    for col in np.flatnonzero(info.cond_block == blk):
        v = s2.detectors[info.cond[col]]
        want = pair_score(p, v, D / n)
        terms = 2.0 * np.linalg.norm(p.Lambda @ v) + np.linalg.norm(p.Gamma) + np.linalg.norm(p.c)
        scale = np.linalg.norm(z) / n * terms + abs(v @ p.Gamma @ v) + abs(v @ p.c) + abs(p.k)
        assert abs(got[col] - want) <= 16.0 * eps * scale


def test_row_at_a_block_shift_is_degenerate():
    """With stage2.b = 0, a row at the shift of a cluster of two or more
    languages has no stage-2 direction there: scoring raises."""
    rng = np.random.default_rng(12)
    backend = build_hier_backend(rng, singleton=True)
    theta2 = {**backend.stage2.theta, "b": np.zeros_like(backend.stage2.theta["b"])}
    backend = dataclasses.replace(
        backend, stage2=dataclasses.replace(backend.stage2, theta=theta2)
    )
    x = backend.shifts[backend.combine.blocks[0]]
    with pytest.raises(DegenerateEmbeddingError):
        backend.score_matrix(np.vstack([rng.standard_normal(8), x]))


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
