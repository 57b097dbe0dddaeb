"""The sparse SAGA row kernel: gathered-CSR gradients vs scipy, bit for bit.

``saga_partition_kernel`` evaluates every sparse gradient on the raw
nonzeros of the sampled rows (``grad_sum_csr_rows``) instead of building
``X[rows]`` per model version. The parity digests in
``test_history_parity.py`` pin whole trajectories; this suite pins the
kernel itself on random CSR blocks — rows with no nonzeros, unsorted
column indices within a row, single-row and all-row selections — and
requires ``np.array_equal``, not closeness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.optim.problems import (
    LeastSquaresProblem,
    LogisticRegressionProblem,
    RidgeProblem,
)
from repro.optim.saga import _gather_csr_rows

_values = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def csr_selections(draw):
    """A random CSR block, a sorted row selection, and a model vector."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 10))
    data, indices, indptr = [], [], [0]
    for _ in range(n):
        # Distinct columns in a random (generally unsorted) order; an
        # empty list is a row with no nonzeros.
        cols = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        indices.extend(cols)
        data.extend(
            draw(st.lists(_values, min_size=len(cols), max_size=len(cols)))
        )
        indptr.append(len(indices))
    X = sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(n, d),
    )
    rows = draw(
        st.one_of(
            st.just(list(range(n))),  # every row
            st.integers(0, n - 1).map(lambda i: [i]),  # a single row
            st.lists(st.integers(0, n - 1), unique=True, min_size=1),
        )
    )
    idx = np.sort(np.array(rows, dtype=np.intp))
    w = np.array(draw(st.lists(_values, min_size=d, max_size=d)))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    targets = draw(st.lists(_values, min_size=n, max_size=n))
    return X, idx, w, np.array(labels), np.array(targets)


@settings(max_examples=150, deadline=None)
@given(csr_selections())
def test_gather_matches_scipy_row_slice(case):
    X, idx, _, _, _ = case
    sub = X[idx]
    data, cols, rowid = _gather_csr_rows(X, idx)
    assert np.array_equal(data, sub.data)
    assert np.array_equal(cols, sub.indices)
    expected = np.repeat(np.arange(len(idx)), np.diff(sub.indptr))
    assert np.array_equal(rowid, expected)


@settings(max_examples=150, deadline=None)
@given(csr_selections())
def test_least_squares_rows_kernel_bit_identical(case):
    X, idx, w, _, y = case
    data, cols, rowid = _gather_csr_rows(X, idx)
    for problem in (LeastSquaresProblem(X, y), RidgeProblem(X, y, lam=0.1)):
        got = problem.grad_sum_csr_rows(data, cols, rowid, y[idx], w)
        assert np.array_equal(got, problem.grad_sum(X[idx], y[idx], w))


@settings(max_examples=150, deadline=None)
@given(csr_selections())
def test_logistic_rows_kernel_bit_identical(case):
    X, idx, w, y, _ = case
    problem = LogisticRegressionProblem(X, y)
    data, cols, rowid = _gather_csr_rows(X, idx)
    got = problem.grad_sum_csr_rows(data, cols, rowid, y[idx], w)
    assert np.array_equal(got, problem.grad_sum(X[idx], y[idx], w))


def test_rows_kernel_all_empty_rows():
    X = sparse.csr_matrix((3, 4))
    idx = np.array([0, 2])
    y = np.array([1.0, -1.0, 1.0])
    w = np.arange(4.0)
    data, cols, rowid = _gather_csr_rows(X, idx)
    assert len(data) == 0
    for problem in (LeastSquaresProblem(X, y), LogisticRegressionProblem(X, y)):
        got = problem.grad_sum_csr_rows(data, cols, rowid, y[idx], w)
        assert got.shape == (4,)
        assert np.array_equal(got, problem.grad_sum(X[idx], y[idx], w))
