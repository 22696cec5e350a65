"""Property tests of the batched exact PLDA scorer.

Random models have dimension 1-6, a between-class precision with condition
number at most 1e4 and enrollment sets of 1-5 vectors. The scalar oracle
exact_llr is the reference; at much worse conditioning (about 1e8) the
oracle itself loses accuracy, so that regime is not tested here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from langrec.plda import EnrollmentStats, PldaModel, enrollment_stats, exact_llr, exact_llr_matrix

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def spd(rng, d, log10_cond):
    """Random SPD matrix whose eigenvalues span exactly 10**log10_cond."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spread = np.linspace(0.0, 1.0, d) if d > 1 else np.zeros(1)
    eig = 10.0 ** (rng.uniform(-1.0, 1.0) + log10_cond * (spread - 0.5))
    return (Q * eig) @ Q.T


@st.composite
def scoring_problems(draw):
    """(model, enrollment groups, test rows)."""
    d = draw(st.integers(1, 6))
    b_cond = draw(st.floats(0.0, 4.0))
    w_cond = draw(st.floats(0.0, 2.0))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n_test = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = PldaModel(
        mu=rng.standard_normal(d), B_prec=spd(rng, d, b_cond), W=spd(rng, d, w_cond)
    )
    spread = 1.0 + 2.0 * rng.random()
    groups = [spread * rng.standard_normal((n, d)) for n in sizes]
    X = spread * rng.standard_normal((n_test, d))
    return model, groups, X


@SETTINGS
@given(scoring_problems())
def test_every_cell_matches_scalar_oracle(problem):
    model, groups, X = problem
    got = exact_llr_matrix(model, enrollment_stats(model, groups), X)
    want = np.array([[exact_llr(model, g, x) for g in groups] for x in X])
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@SETTINGS
@given(scoring_problems())
def test_single_row_equals_its_batched_row(problem):
    model, groups, X = problem
    stats = enrollment_stats(model, groups)
    batch = exact_llr_matrix(model, stats, X)
    for i in range(len(X)):
        row = exact_llr_matrix(model, stats, X[i : i + 1])[0]
        scale = max(1.0, np.abs(batch[i]).max())
        assert np.abs(row - batch[i]).max() <= 1e-12 * scale


@SETTINGS
@given(scoring_problems(), st.randoms(use_true_random=False))
def test_permuting_detectors_permutes_columns(problem, random):
    model, groups, X = problem
    stats = enrollment_stats(model, groups)
    perm = list(range(len(groups)))
    random.shuffle(perm)
    permuted = EnrollmentStats(
        counts=stats.counts[perm], sums=stats.sums[perm], sq_terms=stats.sq_terms[perm]
    )
    full = exact_llr_matrix(model, stats, X)
    got = exact_llr_matrix(model, permuted, X)
    assert np.abs(got - full[:, perm]).max() <= 1e-12 * max(1.0, np.abs(full).max())
