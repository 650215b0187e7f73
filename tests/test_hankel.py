import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelorder import (
    BOTTOM,
    RIGHT,
    Mode,
    ResponsesMatrix,
    ModeSum,
    Signal,
    build_augmented,
    build_hankel,
    build_rectangular_hankel,
    default_policy,
    exact_rank_rational,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    numerical_rank,
    rational_hankel,
    rational_mode_sum,
    row_echelon,
    singular_values,
)


def _sig(values) -> Signal:
    return Signal(np.asarray(values, dtype=float))


def _rank(entries) -> int:
    spectrum = singular_values(entries)
    return numerical_rank(spectrum, default_policy(entries.shape)).rank


class TestBuildHankel:
    def test_three_by_three_layout(self):
        mat = build_hankel(_sig([1, 2, 3, 4, 5]), 3)
        assert mat.entries.tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
        assert mat.shape == (3, 3)

    def test_one_by_one(self):
        mat = build_hankel(_sig([7.5, 1.0]), 1)
        assert mat.entries.tolist() == [[7.5]]

    def test_geometric_rows_are_scaled_copies(self):
        b = math.exp(-0.5)
        sig = gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 12)
        mat = build_hankel(sig, 5).entries
        for k in range(1, 5):
            assert mat[k] == pytest.approx(b * mat[k - 1], rel=1e-14)

    def test_insufficient_samples_names_required_count(self):
        with pytest.raises(ValueError, match="9"):
            build_hankel(_sig([1, 2, 3]), 5)

    def test_rectangular_layouts(self):
        sig = _sig([1, 2, 3, 4])
        assert build_rectangular_hankel(sig, 1, 4).entries.tolist() == [[1, 2, 3, 4]]
        assert build_rectangular_hankel(sig, 2, 3).entries.tolist() == [[1, 2, 3], [2, 3, 4]]

    def test_square_rectangular_consistency(self):
        sig = gen_y5(11)
        a = build_hankel(sig, 5).entries
        b = build_rectangular_hankel(sig, 5, 5).entries
        assert np.array_equal(a, b)

    def test_entries_are_a_read_only_copy(self):
        y, u = gen_nonhomogeneous(30)
        for mat in (build_hankel(y, 5), build_rectangular_hankel(y, 3, 20), build_augmented(y, u, 8, RIGHT)):
            assert mat.entries.flags.owndata and not mat.entries.flags.writeable
            with pytest.raises(ValueError):
                mat.entries[0, 0] = 1.0
        source = np.eye(2)
        mat = ResponsesMatrix(source)
        source[0, 0] = 5.0
        assert mat.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="2-D"):
            ResponsesMatrix(np.ones(3))

    def test_nested_submatrix(self):
        sig = gen_y5(21)
        inner = build_hankel(sig, 6).entries
        outer = build_hankel(sig, 7).entries
        assert np.array_equal(outer[:6, :6], inner)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_anti_diagonal_constancy(values, rows, cols):
    if len(values) < rows + cols - 1:
        values = values + [0.5] * (rows + cols - 1 - len(values))
    mat = build_rectangular_hankel(_sig(values), rows, cols).entries
    for i in range(rows):
        for j in range(cols):
            for i2 in range(rows):
                j2 = i + j - i2
                if 0 <= j2 < cols:
                    assert mat[i, j] == mat[i2, j2]


class TestAugmented:
    def test_shapes(self):
        y, u = gen_nonhomogeneous(40)
        assert build_augmented(y, u, 10, BOTTOM).shape == (11, 10)
        assert build_augmented(y, u, 10, RIGHT).shape == (10, 11)

    def test_u_block_holds_translated_inputs(self):
        y, u = gen_nonhomogeneous(30)
        bottom = build_augmented(y, u, 8, BOTTOM).entries
        right = build_augmented(y, u, 8, RIGHT).entries
        assert np.array_equal(bottom[8, :], u.samples[:8])
        assert np.array_equal(right[:, 8], u.samples[:8])
        assert np.array_equal(bottom[:8, :], build_hankel(y, 8).entries)
        assert np.array_equal(right[:, :8], build_hankel(y, 8).entries)

    def test_nonhomogeneous_rank_stays_two(self):
        y, u = gen_nonhomogeneous(40)
        assert _rank(build_augmented(y, u, 10, BOTTOM).entries) == 2
        assert _rank(build_augmented(y, u, 10, RIGHT).entries) == 2

    def test_zero_input_leaves_rank_unchanged(self):
        y, _ = gen_nonhomogeneous(40)
        zero = Signal(np.zeros(40) + 0.0, provenance="zero")
        plain = _rank(build_hankel(y, 10).entries)
        assert _rank(build_augmented(y, zero, 10, BOTTOM).entries) == plain

    def test_bottom_and_right_have_equal_rank(self):
        # cross-check: compute both numerically
        y, u = gen_nonhomogeneous(30)
        for n in (4, 7, 10):
            rb = _rank(build_augmented(y, u, n, BOTTOM).entries)
            rr = _rank(build_augmented(y, u, n, RIGHT).entries)
            assert rb == rr

    def test_preconditions(self):
        y, u = gen_nonhomogeneous(19)
        with pytest.raises(ValueError, match="20"):
            build_augmented(y, u, 10, BOTTOM)
        y2, _ = gen_nonhomogeneous(40)
        short_u = Signal(np.ones(5))
        with pytest.raises(ValueError, match="11"):
            build_augmented(y2, short_u, 10, BOTTOM)
        with pytest.raises(ValueError):
            build_augmented(y2, Signal(np.ones(40)), 10, "diagonal")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_rectangular_hankel(_sig([1, 2, 3]), 0, 3), "rows and cols must be >= 1"),
        (lambda: build_augmented(*gen_nonhomogeneous(10), 0), "n must be >= 1"),
        (lambda: rational_hankel([Fraction(1)] * 4, 3, 3), "need rows + cols - 1 = 5 samples, have 4"),
        (lambda: row_echelon(np.ones(3)), "matrix must be 2-D"),
    ],
    ids=["hankel_zero_rows", "augmented_zero_n", "rational_too_few_samples", "echelon_1d"],
)
def test_malformed_arguments_are_rejected_with_one_line(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call()


RATIO_POOL = [Fraction(k, 8) for k in range(1, 9)]
COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]


@st.composite
def rational_modes(draw, max_modes=4):
    ratios = draw(
        st.lists(st.sampled_from(RATIO_POOL), min_size=1, max_size=max_modes, unique=True)
    )
    coeffs = draw(
        st.lists(st.sampled_from(COEFF_POOL), min_size=len(ratios), max_size=len(ratios))
    )
    return list(zip(coeffs, ratios))


@settings(max_examples=60, deadline=None)
@given(rational_modes())
def test_marginal_case_rank_is_true_order(modes):
    # order-M signal: the (M+1) x (M+1) matrix already has exact rank M
    order = len(modes)
    samples = rational_mode_sum(modes, 2 * (order + 1) - 1)
    mat = rational_hankel(samples, order + 1, order + 1)
    assert exact_rank_rational(mat) == order


class TestRowEchelon:
    def test_identity_full_pivots(self):
        reduced, pivots = row_echelon(np.eye(3), 0.0)
        assert pivots == 3
        assert np.array_equal(reduced, np.eye(3))

    def test_rank_one_geometric(self):
        sig = gen_mode_sum(ModeSum([Mode(1.0, math.log(2.0))]), 7)
        mat = build_hankel(sig, 4).entries
        _, pivots = row_echelon(mat, 1e-10)
        assert pivots == 1

    def test_y5_pivot_count_matches_svd_rank_at_same_tolerance(self):
        # cross-check: the accepted-pivot count at a relative tolerance
        # agrees with the singular-value count above the same tolerance
        mat = build_hankel(gen_y5(15), 8).entries
        _, pivots = row_echelon(mat, 1e-10)
        spectrum = singular_values(mat)
        svd_rank = int(np.sum(spectrum.values > 1e-10 * spectrum.values[0]))
        assert pivots == svd_rank == 4

    def test_zero_matrix_has_no_pivots(self):
        _, pivots = row_echelon(np.zeros((3, 4)), 0.0)
        assert pivots == 0

    def test_reduced_form_is_echelon(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(5, 5))
        reduced, pivots = row_echelon(mat, 0.0)
        assert pivots == 5
        below = np.tril(reduced, k=-1)
        assert np.max(np.abs(below)) == 0.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            row_echelon(np.eye(2), -1.0)

    def test_exact_pivot_count_equals_oracle_on_rationals(self):
        samples = rational_mode_sum([(1, Fraction(1, 2)), (3, Fraction(2, 3))], 9)
        mat = rational_hankel(samples, 5, 5)
        _, pivots = row_echelon(np.array(mat, dtype=object), 0.0)
        assert pivots == exact_rank_rational(mat) == 2


@settings(max_examples=40, deadline=None)
@given(rational_modes(max_modes=3), st.integers(0, 2))
def test_echelon_zero_tolerance_matches_exact_rank(modes, extra):
    n = len(modes) + 1 + extra
    samples = rational_mode_sum(modes, 2 * n - 1)
    mat = rational_hankel(samples, n, n)
    _, pivots = row_echelon(np.array(mat, dtype=object), 0.0)
    assert pivots == exact_rank_rational(mat)

