import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelorder import (
    EPS,
    Mode,
    ModeSum,
    RankPolicy,
    SingularSpectrum,
    build_hankel,
    condition_number,
    default_policy,
    exact_rank_rational,
    gen_mode_sum,
    gen_y5,
    numerical_rank,
    rational_hankel,
    rational_mode_sum,
    singular_values,
)
from hankelorder.rank import _decide


def _spectrum(values, shape=None):
    values = np.asarray(values, dtype=float)
    if shape is None:
        shape = (values.size, values.size)
    return SingularSpectrum(values, shape)


class TestSingularValues:
    def test_identity(self):
        spec = singular_values(np.eye(3))
        assert spec.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        mat = q1 @ np.diag([3.0, 2.0, 1.0]) @ q2
        spec = singular_values(mat)
        assert spec.values == pytest.approx([3.0, 2.0, 1.0], abs=1e-10 * 3.0)

    def test_rank_one_outer_product(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        spec = singular_values(np.outer(u, v))
        assert spec.values[0] == pytest.approx(1.0, rel=1e-13)
        assert spec.values[1] == pytest.approx(0.0, abs=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, math.inf]]))

    @pytest.mark.parametrize("matrix", [np.ones(3), np.empty((0, 3))], ids=["1-D", "empty"])
    def test_matrix_must_be_2d_and_non_empty(self, matrix):
        with pytest.raises(ValueError, match=r"^matrix must be 2-D and non-empty$"):
            singular_values(matrix)

    def test_shape_recorded(self):
        spec = singular_values(np.ones((2, 5)))
        assert spec.source_shape == (2, 5)
        assert len(spec) == 2


class TestRankPolicyValidation:
    def test_relative_range(self):
        with pytest.raises(ValueError):
            RankPolicy.relative(0.0)
        with pytest.raises(ValueError):
            RankPolicy.relative(1.0)

    def test_absolute_positive(self):
        with pytest.raises(ValueError):
            RankPolicy.absolute(0.0)

    def test_gap_above_one(self):
        with pytest.raises(ValueError):
            RankPolicy.gap(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RankPolicy("magic", 0.5)

    @pytest.mark.parametrize("make", [RankPolicy.absolute, RankPolicy.gap])
    def test_infinite_value_rejected(self, make):
        # inf passes the range checks of both kinds
        with pytest.raises(ValueError, match=r"^policy value must be finite$"):
            make(math.inf)


class TestNumericalRank:
    def test_relative_threshold_example(self):
        res = numerical_rank(_spectrum([1.0, 1e-14, 1e-15]), RankPolicy.relative(1e-10))
        assert res.rank == 1
        assert res.decision_gap == pytest.approx(1e14, rel=1e-6)

    def test_gap_without_qualifying_drop_returns_full(self):
        res = numerical_rank(_spectrum([5.0, 4.0, 3.0]), RankPolicy.gap(10.0))
        assert res.rank == 3
        assert res.decision_gap == pytest.approx(4.0 / 3.0)

    def test_gap_detects_largest_drop(self):
        res = numerical_rank(_spectrum([8.0, 4.0, 1e-9, 1e-10]), RankPolicy.gap(1e3))
        assert res.rank == 2
        assert res.decision_gap == pytest.approx(4.0 / 1e-9)

    def test_gap_with_exact_zeros(self):
        res = numerical_rank(_spectrum([1.0, 0.0, 0.0]), RankPolicy.gap())
        assert res.rank == 1
        assert res.decision_gap == math.inf

    def test_all_zero_spectrum(self):
        for policy in (RankPolicy.relative(1e-10), RankPolicy.absolute(1.0), RankPolicy.gap()):
            assert numerical_rank(_spectrum([0.0, 0.0]), policy).rank == 0

    def test_absolute_threshold(self):
        res = numerical_rank(_spectrum([2.0, 0.5, 0.01]), RankPolicy.absolute(0.1))
        assert res.rank == 2

    def test_y5_eight_by_eight_is_rank_five_under_default_policy(self):
        mat = build_hankel(gen_y5(15), 8).entries
        spectrum = singular_values(mat)
        res = numerical_rank(spectrum, default_policy(mat.shape))
        assert res.rank == 5

    def test_decision_gap_full_rank_is_infinite(self):
        res = numerical_rank(_spectrum([3.0, 2.0, 1.0]), RankPolicy.relative(1e-12))
        assert res.rank == 3
        assert res.decision_gap == math.inf


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(_spectrum([1.0, 1.0, 1.0])) == 1.0

    def test_ratio(self):
        assert condition_number(_spectrum([10.0, 1e-9])) == pytest.approx(1e10)

    def test_singular_gives_infinity(self):
        assert condition_number(_spectrum([1.0, 0.0])) == math.inf


class TestExactRankRational:
    def test_geometric_is_rank_one_at_every_size(self):
        samples = rational_mode_sum([(1, Fraction(1, 2))], 19)
        for n in range(1, 7):
            assert exact_rank_rational(rational_hankel(samples, n, n)) == 1

    def test_two_modes_rank_two(self):
        samples = rational_mode_sum([(1, Fraction(1, 2)), (1, Fraction(1, 3))], 19)
        for n in range(3, 7):
            assert exact_rank_rational(rational_hankel(samples, n, n)) == 2

    def test_zero_matrix(self):
        assert exact_rank_rational([[0, 0], [0, 0]]) == 0

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            exact_rank_rational([[0.5, 1.0]])

    def test_rectangular(self):
        assert exact_rank_rational([[1, 2, 3], [2, 4, 6]]) == 1

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1, 2], [3]], "matrix rows must have equal length"),
            ([], "matrix must be non-empty"),
            ([[], []], "matrix must be non-empty"),
        ],
        ids=["ragged", "no_rows", "empty_rows"],
    )
    def test_malformed_matrix_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            exact_rank_rational(matrix)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_exact_rank_matches_sympy(rows):
    # independent oracle: sympy's exact rank over the rationals
    assert exact_rank_rational(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                 min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_exact_rank_matches_sympy_on_fractions(rows):
    assert exact_rank_rational(rows) == sympy.Matrix(rows).rank()


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


@settings(max_examples=50, deadline=None)
@given(rational_modes(), st.integers(0, 3))
def test_default_policy_agrees_with_exact_oracle(modes, extra):
    # float pipeline vs the exact rational oracle on the same matrix
    order = len(modes)
    n = min(order + 1 + extra, 8)
    samples = rational_mode_sum(modes, 2 * n - 1)
    exact = exact_rank_rational(rational_hankel(samples, n, n))
    mat = np.array([[float(samples[i + j]) for j in range(n)] for i in range(n)])
    res = numerical_rank(singular_values(mat), default_policy(mat.shape))
    assert res.rank == exact == min(order, n)


@settings(max_examples=30, deadline=None)
@given(rational_modes(), st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
def test_relative_rank_is_scale_invariant(modes, scale):
    samples = [float(s) for s in rational_mode_sum(modes, 15)]
    mat = np.array([[samples[i + j] for j in range(8)] for i in range(8)])
    policy = default_policy(mat.shape)
    base = numerical_rank(singular_values(mat), policy).rank
    scaled = numerical_rank(singular_values(mat * scale), policy).rank
    assert base == scaled


@settings(max_examples=30, deadline=None)
@given(rational_modes())
def test_rank_monotone_under_nesting(modes):
    sig = gen_mode_sum(
        ModeSum([Mode(float(c), -math.log(float(r))) for c, r in modes]), 17
    )
    prev = 0
    for n in range(2, 9):
        mat = build_hankel(sig, n).entries
        rank = numerical_rank(singular_values(mat), default_policy(mat.shape)).rank
        assert rank >= prev
        prev = rank


def test_transpose_has_same_spectrum():
    mat = build_hankel(gen_y5(15), 6).entries
    rect = mat[:4, :]
    a = singular_values(rect).values
    b = singular_values(rect.T).values
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_default_policy_value():
    policy = default_policy((8, 33))
    assert policy.kind == "relative_threshold"
    assert policy.value == pytest.approx(33 * EPS)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        _spectrum([1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        _spectrum([1.0, -0.5])  # negative
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0]), (2, 2))  # wrong length


# ---------------------------------------------------------------------------
# the stacked decision kernel against a local copy of the one-spectrum rules


def _scalar_gap_at(values, rank):
    if rank == 0 or rank >= values.size:
        return math.inf
    lo = values[rank]
    return math.inf if lo == 0.0 else float(values[rank - 1] / lo)


def _scalar_rank(values, policy):
    """The per-spectrum numerical_rank rules, one spectrum at a time."""
    if values[0] == 0.0:
        return 0, math.inf
    if policy.kind == "relative_threshold":
        rank = int(np.sum(values > policy.value * values[0]))
        return rank, _scalar_gap_at(values, rank)
    if policy.kind == "absolute_threshold":
        rank = int(np.sum(values > policy.value))
        return rank, _scalar_gap_at(values, rank)
    best_i, best_ratio = None, 1.0
    for i in range(values.size - 1):
        hi, lo = values[i], values[i + 1]
        if hi == 0.0:
            ratio = 1.0
        elif lo == 0.0:
            ratio = math.inf
        else:
            ratio = float(hi / lo)
        if ratio > best_ratio:
            best_i, best_ratio = i, ratio
    if best_i is not None and best_ratio >= policy.value:
        return best_i + 1, best_ratio
    return values.size, best_ratio


def _scalar_condition(values):
    smin = float(values[-1])
    return math.inf if smin == 0.0 else float(values[0]) / smin


def _decide_rows(stack, policy):
    """``_decide`` on a (k, m) stack of full-length spectra (padded here
    with one zero column), as a list of (rank, gap, condition) tuples."""
    stack = np.asarray(stack, dtype=float)
    padded = np.concatenate([stack, np.zeros(stack.shape[:-1] + (1,))], axis=-1)
    decided = _decide(padded, stack.shape[-1], policy.kind, policy.value)
    return list(zip(decided.rank.tolist(), decided.gap.tolist(), decided.condition.tolist()))


def _bits(rank, gap, cond):
    return rank, float(gap).hex(), float(cond).hex()


_SPECTRUM_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.0, 1e-300, 5e-324]),  # ties and subnormals
    st.floats(min_value=0.0, max_value=1e300),
)
_POLICY_VALUES = {
    "relative_threshold": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "absolute_threshold": st.floats(min_value=1e-300, max_value=1e300),
    "gap_ratio": st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
}
_POLICIES = st.one_of(*(values.map(partial(RankPolicy, kind)) for kind, values in _POLICY_VALUES.items()))


@st.composite
def _spectrum_stacks(draw):
    m = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = [0.0] * m if draw(st.booleans()) and draw(st.booleans()) else draw(
            st.lists(_SPECTRUM_VALUES, min_size=m, max_size=m)
        )
        rows.append(sorted(row, reverse=True))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_spectrum_stacks(), _POLICIES)
def test_stacked_kernel_matches_one_spectrum_rules_bit_for_bit(stack, policy):
    with np.errstate(all="ignore"):
        expected = [_bits(*_scalar_rank(row, policy), _scalar_condition(row)) for row in stack]
    assert [_bits(*d) for d in _decide_rows(stack, policy)] == expected
    for row, want in zip(stack, expected):
        spectrum = _spectrum(row)
        res = numerical_rank(spectrum, policy)
        assert _bits(res.rank, res.decision_gap, condition_number(spectrum)) == want




@st.composite
def _ragged_stacks(draw):
    """A zero-padded (k, width + 1) stack of spectra of lengths 1..width,
    their lengths, a policy kind and one policy value per row."""
    width = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(sorted(_POLICY_VALUES)))
    rows, lengths, values = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.integers(1, width))
        row = [0.0] * m if draw(st.booleans()) and draw(st.booleans()) else draw(
            st.lists(_SPECTRUM_VALUES, min_size=m, max_size=m)
        )
        rows.append(sorted(row, reverse=True) + [0.0] * (width + 1 - m))
        lengths.append(m)
        if kind == "relative_threshold" and draw(st.booleans()):  # the per-n default cut
            values.append(default_policy((m, draw(st.integers(m, 400)))).value)
        else:
            values.append(draw(_POLICY_VALUES[kind]))
    return np.array(rows).reshape(-1, width + 1), np.array(lengths, dtype=int), kind, np.array(values)


@settings(max_examples=200, deadline=None)
@given(_ragged_stacks(), st.booleans())
def test_padded_ragged_stack_matches_one_spectrum_rules_bit_for_bit(case, one_value):
    padded, lengths, kind, values = case
    if one_value and len(values):
        values = np.full_like(values, values[0])
    with np.errstate(all="ignore"):
        expected = [
            _bits(*_scalar_rank(row[:m], RankPolicy(kind, float(v))), _scalar_condition(row[:m]))
            for row, m, v in zip(padded, lengths, values)
        ]
    flat = _decide(padded, lengths, kind, float(values[0]) if one_value and len(values) else values)
    assert [_bits(*d) for d in zip(flat.rank.tolist(), flat.gap.tolist(), flat.condition.tolist())] == expected
    # one (points, signals, width + 1) sweep stack, lengths and values per point
    stacked = _decide(padded[:, None], lengths[:, None], kind, values[:, None])
    assert (stacked.rank[:, 0].tolist(), stacked.gap[:, 0].tolist(), stacked.condition[:, 0].tolist()) == (
        flat.rank.tolist(), flat.gap.tolist(), flat.condition.tolist()
    )


def test_padded_rows_decide_within_their_length():
    padded = np.array([
        [4.0, 2.0, 0.0, 0.0],  # m = 2: full rank, the padding is no drop
        [1e300, 1e-300, 0.0, 0.0],  # the only drop overflows to inf
        [3.0, 0.0, 0.0, 0.0],  # m = 1
        [2.0, 1.0, 0.0, 0.0],  # m = 3, with an exact zero below the cut
        [0.0, 0.0, 0.0, 0.0],  # all zero
    ])
    lengths = np.array([2, 2, 1, 3, 3])
    decided = _decide(padded, lengths, "gap_ratio", 1e3)
    assert decided.rank.tolist() == [2, 1, 1, 2, 0]
    assert decided.gap.tolist() == [2.0, math.inf, 1.0, math.inf, math.inf]
    assert decided.condition.tolist() == [2.0, math.inf, 1.0, math.inf, math.inf]
    decided = _decide(padded, lengths, "relative_threshold", np.array([0.6, 1e-10, 0.5, 0.6, 0.5]))
    assert decided.rank.tolist() == [1, 1, 1, 1, 0]
    assert decided.gap.tolist() == [2.0, math.inf, math.inf, 2.0, math.inf]


def test_kernel_edge_spectra():
    stack = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0]])
    assert _decide_rows(stack, RankPolicy.gap()) == [
        (0, math.inf, math.inf),
        (3, 1.0, 1.0),
        (1, math.inf, math.inf),
    ]
    assert _decide_rows(np.array([[3.0]]), RankPolicy.relative(0.5)) == [(1, math.inf, 1.0)]
    assert _decide_rows(np.empty((0, 4)), RankPolicy.gap()) == []


_BAD_SPECTRA = {
    "nan": [2.0, math.nan, 1.0],
    "+inf": [math.inf, 2.0, 1.0],
    "-inf": [2.0, 1.0, -math.inf],
    "negative_last": [2.0, 1.0, -0.5],
    "negative_middle": [2.0, -1.0, 0.0],
    "all_negative": [-1.0, -2.0, -3.0],
    "increasing_first_pair": [1.0, 2.0, 0.0],
    "increasing_last_pair": [2.0, 0.0, 1.0],
    "increasing_by_one_ulp": [1.0, 1.0, float(np.nextafter(1.0, 2.0))],
}


@pytest.mark.parametrize("defect", sorted(_BAD_SPECTRA))
def test_spectrum_rejects_each_defect(defect):
    with pytest.raises(ValueError, match="singular values must be"):
        _spectrum(_BAD_SPECTRA[defect])


def assert_valid_stacks(stacks):
    """What ``_decide`` takes on trust, for (spectra, lengths) pairs with
    one length per row: each row is finite, >= 0 and non-increasing over
    its length, with at least one zero after it and only zeros."""
    assert stacks
    for spectra, lengths in stacks:
        for row, m in zip(spectra.reshape(-1, spectra.shape[-1]), lengths.reshape(-1)):
            assert np.isfinite(row).all() and (row >= 0).all()
            assert (row[: m - 1] >= row[1:m]).all()
            assert m < row.size and not row[m:].any()


_GOOD_STACK = [[3.0, 2.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("where", range(len(_GOOD_STACK)))
@pytest.mark.parametrize("defect", sorted(_BAD_SPECTRA))
def test_stack_check_rejects_each_defect_in_any_row(defect, where):
    """The kernel checks nothing, so the stack check the sweep recordings
    use must find each defect wherever it sits in a stack."""
    lengths = np.full(len(_GOOD_STACK), 3)
    assert_valid_stacks([(np.array(_GOOD_STACK), lengths)])
    stack = [list(row) for row in _GOOD_STACK]
    stack[where] = _BAD_SPECTRA[defect] + [0.0]
    with pytest.raises(AssertionError):
        assert_valid_stacks([(np.array(stack), lengths)])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_spectrum_of_an_empty_matrix_is_rejected(shape):
    with pytest.raises(ValueError, match="source_shape needs at least one row and one column"):
        numerical_rank(SingularSpectrum([], shape), RankPolicy.gap())
    with pytest.raises(ValueError, match="source_shape needs at least one row and one column"):
        condition_number(SingularSpectrum([], shape))


def _rejected_by_original_check(row):
    """The spectrum check as first written: every value finite and >= 0
    and no adjacent difference > 0."""
    with np.errstate(invalid="ignore"):
        return not (np.all(np.isfinite(row)) and np.all(row >= 0) and not np.any(np.diff(row) > 0))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=m,
                max_size=m,
            ),
            min_size=1,
            max_size=4,
        )
    ),
    st.booleans(),
)
def test_spectrum_rejects_exactly_what_the_original_check_rejected(rows, sort):
    for row in np.array([sorted(row, reverse=True) for row in rows] if sort else rows):
        try:
            _spectrum(row)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == _rejected_by_original_check(row)
