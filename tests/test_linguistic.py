"""Linguistic partition, membership, and mass-tensor tests."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evidential_magdm import linguistic, recruitment as ref
from evidential_magdm.errors import DegenerateAttributeError, DegenerateDomainError
from evidential_magdm.linguistic import (
    DEFAULT_TERMS,
    DecisionMatrix,
    LinguisticPartition,
    _membership_kernel,
    _span_scale,
    MembershipMatrix,
    bpa_tensor,
    membership_matrix,
    normalize_decision_matrix,
    term_slab,
)
from evidential_magdm.pipeline import fuse, run_pipeline


_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)


def simple_matrix(values, expert="x"):
    return DecisionMatrix(expert, np.asarray(values, dtype=float))


def reference_normalize(matrix):
    """The per-matrix normalise that the stacked one replaced, kept as its oracle."""
    values = matrix.values
    with np.errstate(over="ignore"):
        squares = (values ** 2).sum(axis=0)
    norms = np.sqrt(squares)
    rescale = ~((squares >= _TINY) & (squares <= _MAX))
    if np.any(rescale):
        peaks = np.where(rescale, np.abs(values).max(axis=0), 1.0)
        zero = np.flatnonzero(peaks == 0)
        if zero.size:
            bad = matrix.attribute_labels[zero[0]]
            raise DegenerateAttributeError(f"attribute {bad!r} of expert {matrix.expert_id!r} is identically zero")
        values = values / peaks
        norms = np.where(rescale, np.sqrt((values ** 2).sum(axis=0)), norms)
    return values / norms


# column scales: ordinary, sums of squares that overflow or sit at the
# edge of the float range, that underflow or are subnormal, and zero
_COLUMN_SCALES = [1.0, 1.0, 1.0, 7.5e-3, 1e200, 1e154, 1.4e154, 1e-154, 1e-160, 1e-170, 0.0]


@st.composite
def scaled_groups(draw):
    """k in 2..16 signed (p, q) matrices, each column times a drawn scale."""
    k, p, q = draw(st.integers(2, 16)), draw(st.integers(2, 40)), draw(st.integers(1, 5))
    values = draw(hnp.arrays(float, (k, p, q), elements=st.floats(-100.0, 100.0, allow_subnormal=False)))
    scales = draw(hnp.arrays(float, (k, 1, q), elements=st.sampled_from(_COLUMN_SCALES)))
    return [DecisionMatrix(f"e{e}", m) for e, m in enumerate(values * scales)]


class TestNormalize:
    def test_three_four_five(self):
        out = normalize_decision_matrix([simple_matrix([[3.0], [4.0]])])
        assert out.shape == (1, 2, 1)
        np.testing.assert_allclose(out[0, :, 0], [0.6, 0.8])

    def test_reference_column_oracle(self):
        # oracle: explicit sum of squares over the bundled panel column
        m = ref.decision_matrices()[0]
        panel = m.values[:, 0].tolist()
        norm = math.sqrt(sum(v * v for v in panel))
        assert norm == pytest.approx(math.sqrt(92925.0))
        out = normalize_decision_matrix(ref.decision_matrices())[0]
        assert out[0, 0] == pytest.approx(80.0 / norm)
        assert out[0, 0] == pytest.approx(0.2624, abs=5e-5)

    def test_scale_invariance(self):
        m = simple_matrix([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])
        out = normalize_decision_matrix([m, simple_matrix(m.values * 7.5, "y")])
        np.testing.assert_allclose(out[0], out[1], atol=1e-15)

    def test_zero_column_rejected(self):
        m = simple_matrix([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(DegenerateAttributeError):
            normalize_decision_matrix([m])

    def test_unit_column_norms(self):
        rng = np.random.default_rng(2)
        group = [simple_matrix(rng.uniform(1, 9, size=(6, 4)), f"e{e}") for e in range(3)]
        out = normalize_decision_matrix(group)
        np.testing.assert_allclose((out ** 2).sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-160], ids=["overflow", "underflow", "subnormal"])
    def test_column_outside_the_square_range_is_rescaled(self, scale):
        # the sum of squares of the first column overflows, underflows to
        # zero, or is subnormal; the second column must not notice
        ordinary = np.array([[1.0], [2.0], [2.0], [4.0]])
        m = simple_matrix(np.hstack([ordinary * scale, ordinary * 7.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_decision_matrix([m])[0]
        np.testing.assert_allclose(out[:, 0], [0.2, 0.4, 0.4, 0.8], rtol=1e-15)
        assert np.array_equal(out[:, 1], normalize_decision_matrix([simple_matrix(ordinary * 7.0)])[0, :, 0])

    def test_zero_column_named_after_a_rescaled_one(self):
        m = DecisionMatrix("e", np.array([[1e200, 0.0], [1.0, 0.0]]), attribute_labels=("big", "none"))
        with pytest.raises(DegenerateAttributeError, match="attribute 'none' of expert 'e' is identically zero"):
            normalize_decision_matrix([m])

    def test_first_zero_column_in_expert_order_is_named(self):
        ok = DecisionMatrix("a", np.array([[1.0, 2.0], [3.0, 4.0]]), attribute_labels=("x", "y"))
        late = DecisionMatrix("b", np.array([[1.0, 0.0], [3.0, 0.0]]), attribute_labels=("x", "y"))
        early = DecisionMatrix("c", np.array([[0.0, 2.0], [0.0, 4.0]]), attribute_labels=("x", "y"))
        with pytest.raises(DegenerateAttributeError, match="attribute 'y' of expert 'b'"):
            normalize_decision_matrix([ok, late, early])

    def test_shape_mismatch_names_the_expert(self):
        with pytest.raises(ValueError, match=r"expert 'y' matrix shape \(3, 1\) != \(2, 1\)"):
            normalize_decision_matrix([simple_matrix([[1.0], [2.0]]), simple_matrix([[1.0], [2.0], [3.0]], "y")])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(group=scaled_groups())
    def test_stack_is_the_per_matrix_normalise_bit_for_bit(self, group):
        # and so is the fused matrix, at random convex weights
        try:
            expected = [reference_normalize(m) for m in group]
        except DegenerateAttributeError as exc:
            with pytest.raises(DegenerateAttributeError, match=re.escape(str(exc))):
                normalize_decision_matrix(group)
            return
        got = normalize_decision_matrix(group)
        assert got.shape == (len(group),) + group[0].shape
        assert got.tobytes() == np.stack(expected).tobytes()
        weights = np.random.default_rng(len(group)).dirichlet(np.ones(len(group)))
        reference_fused = np.zeros(group[0].shape)
        for w, m in zip(weights, expected):
            reference_fused += w * m
        assert fuse(got, weights).tobytes() == reference_fused.tobytes()


def column_memberships(column, terms=DEFAULT_TERMS):
    """One expert's single column through ``membership_matrix``: (degrees, partition)."""
    got = membership_matrix([simple_matrix(np.asarray(column, dtype=float)[:, None])], terms=terms)
    return got.degrees[0, :, 0, :], got.partitions(0)[0]


class TestColumnPartition:
    """A column's partition is its observed range [min, max]."""

    def test_reference_panel_extremes(self):
        panel = ref.decision_matrices()[0].values[:, 0]
        _, part = column_memberships(panel)
        assert (part.lower, part.upper) == (50.0, 90.0)
        assert part.alpha == pytest.approx(10.0)
        assert part.term_count == 5

    def test_unit_interval(self):
        _, part = column_memberships([0.0, 1.0], terms=3)
        assert (part.lower, part.upper, part.alpha) == (0.0, 1.0, 0.5)

    def test_degenerate_domain(self):
        with pytest.raises(DegenerateDomainError, match="single observed value"):
            column_memberships([5.0, 5.0, 5.0])

    def test_interior_peaks(self):
        _, part = column_memberships([0.0, 8.0])
        assert [part.peak(t) for t in range(1, 6)] == [0.0, 2.0, 4.0, 6.0, 8.0]


class TestMembership:
    """Degrees of single values on the panel range [50, 90]."""

    def degrees(self, value):
        degrees, _ = column_memberships([50.0, value, 90.0])
        return degrees[1]

    def test_published_row_values(self):
        np.testing.assert_allclose(self.degrees(80.0), [0.25, 1 / 3, 0.5, 1.0, 0.75], atol=1e-12)

    def test_lower_endpoint(self):
        assert self.degrees(50.0)[0] == pytest.approx(1.0)
        assert self.degrees(50.0)[4] == pytest.approx(0.0)

    def test_upper_endpoint(self):
        np.testing.assert_allclose(self.degrees(90.0), [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_interior_terms_peak_at_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo, width = rng.uniform(-5, 5), rng.uniform(0.5, 10)
            terms = int(rng.integers(3, 10))
            part = LinguisticPartition(lo, lo + width, terms - 1)
            peaks = [part.peak(t) for t in range(1, terms + 1)]
            degrees, got = column_memberships(peaks, terms=terms)
            assert got == part
            for term in range(2, terms):
                assert degrees[term - 1, term - 1] == pytest.approx(1.0)

    def test_bounded_on_domain(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([[-2.0, 3.0], rng.uniform(-2.0, 3.0, size=100_000)])
        mu, _ = column_memberships(values)
        assert mu.min() >= -1e-12 and mu.max() <= 1.0 + 1e-12


class TestMembershipMatrix:
    def test_reference_expert_matches_published_table(self):
        table = ref.PUBLISHED_MEMBERSHIPS_U1.copy()
        for cell, corrected in ref.MEMBERSHIP_ERRATA.items():
            table[cell] = corrected
        computed = membership_matrix(ref.decision_matrices()[:1]).degrees[0].reshape(17, -1)
        np.testing.assert_allclose(computed, table, atol=1e-4)

    def test_extremes_one_hot(self):
        m = simple_matrix([[0.0], [1.0], [0.5]])
        degrees = membership_matrix([m]).degrees[0, :, 0, :]
        np.testing.assert_allclose(degrees[0], [1, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(degrees[1], [0, 0, 0, 0, 1], atol=1e-12)

    def test_scaling_leaves_memberships_unchanged(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(10, 99, size=(8, 3))
        base = membership_matrix([simple_matrix(values)]).degrees
        scaled = membership_matrix([simple_matrix(values * 3.7)]).degrees
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_degenerate_column_error_names_attribute(self):
        m = DecisionMatrix("e", np.array([[1.0, 2.0], [1.0, 3.0]]), ("A", "B"), ("t1", "t2"))
        with pytest.raises(DegenerateDomainError, match="t1"):
            membership_matrix([m])

    def test_degenerate_column_uniform_override(self):
        m = simple_matrix([[1.0, 2.0], [1.0, 3.0]])
        degrees = membership_matrix([m], uniform_when_degenerate=True).degrees[0]
        np.testing.assert_allclose(degrees[:, 0, :], 0.2, atol=1e-12)


def term_loop_memberships(values, partition):
    """Oracle: one term at a time, peaks from ``LinguisticPartition.peak``."""
    arr = np.asarray(values, dtype=float)
    lo, hi, bins = partition.lower, partition.upper, partition.segments
    out = np.empty(arr.shape + (partition.term_count,))
    out[..., 0] = 1.0 - (arr - lo) / (hi - lo)
    for term in range(2, bins + 1):
        peak = partition.peak(term)
        rising = (arr - lo) / (peak - lo)
        falling = 1.0 - (arr - peak) / (hi - peak)
        out[..., term - 1] = np.where(arr <= peak, rising, falling)
    out[..., bins] = (arr - lo) / (hi - lo)
    return out


@st.composite
def matrices_with_flat_columns(draw):
    """(p, q) matrices of mixed sign and scale; some columns held constant."""
    p = draw(st.integers(2, 12))
    q = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # six decimals keep every non-flat column's span far above underflow
    elements = st.floats(-1.0, 1.0).map(lambda v: round(v, 6))
    values = draw(hnp.arrays(float, (p, q), elements=elements)) * scale
    flat = draw(hnp.arrays(bool, q))
    values[:, flat] = values[0, flat]
    return values


class TestMembershipKernel:
    """The whole-matrix pass must equal the per-column construction bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(values=matrices_with_flat_columns(), terms=st.integers(5, 9))
    def test_matrix_equals_per_column_reference(self, values, terms):
        m = DecisionMatrix("x", values)
        got = membership_matrix([m], terms=terms, uniform_when_degenerate=True)
        for j in range(values.shape[1]):
            column = values[:, j]
            if column.min() == column.max():
                v = float(column[0])
                expected = np.full((column.size, terms), 1.0 / terms)
                part = LinguisticPartition(v - 0.5, v + 0.5, terms - 1)
            else:
                part = LinguisticPartition(column.min(), column.max(), terms - 1)
                expected = term_loop_memberships(column, part)
            assert np.array_equal(got.degrees[0, :, j, :], expected)
            assert got.partitions(0)[j] == part

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        column=hnp.arrays(float, st.integers(2, 20), elements=st.floats(-50.0, 50.0, width=64)),
        segments=st.integers(4, 8),
    )
    def test_wide_column_equals_term_loop(self, column, segments):
        try:
            part = LinguisticPartition(column.min(), column.max(), segments)
        except DegenerateDomainError:
            assume(False)
        got = membership_matrix([DecisionMatrix("x", column[:, None])], terms=segments + 1)
        assert np.array_equal(got.degrees[0, :, 0, :], term_loop_memberships(column, part))

    def test_flat_column_error_names_first_flat_attribute(self):
        values = np.array([[1.0, 2.0, 7.0, 4.0], [3.0, 2.0, 7.0, 5.0]])
        m = DecisionMatrix("e", values, ("A", "B"), ("t1", "t2", "t3", "t4"))
        with pytest.raises(DegenerateDomainError, match="attribute 't2' of expert 'e' has a single observed value"):
            membership_matrix([m])

    def test_flat_column_error_names_first_flat_column_in_expert_order(self):
        plain = np.array([[1.0, 2.0, 7.0], [3.0, 4.0, 8.0]])
        flat_t3 = np.array([[1.0, 2.0, 7.0], [3.0, 4.0, 7.0]])
        flat_t1 = np.array([[1.0, 2.0, 7.0], [1.0, 4.0, 8.0]])
        labels = (("A", "B"), ("t1", "t2", "t3"))
        group = [DecisionMatrix(e, v, *labels) for e, v in (("a", plain), ("b", flat_t3), ("c", flat_t1))]
        with pytest.raises(DegenerateDomainError, match="attribute 't3' of expert 'b' has a single observed value"):
            membership_matrix(group)

    @pytest.mark.parametrize(
        "column", [[0.0, 5e-324, 0.0], [1.0, 1.0000000000000002, 1.0]],
        ids=["span-underflows", "peaks-round-onto-ends"],
    )
    def test_unsplittable_column_counts_as_flat(self, column):
        m = DecisionMatrix("e", np.array([column, [1.0, 2.0, 3.0]]).T, ("A", "B", "C"), ("t1", "t2"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDomainError, match="attribute 't1' of expert 'e'"):
                membership_matrix([m])
            degrees = membership_matrix([m], uniform_when_degenerate=True).degrees[0]
        assert np.array_equal(degrees[:, 0, :], np.full((3, 5), 0.2))

    @pytest.mark.parametrize("terms", [5, 7, 9])
    @pytest.mark.parametrize("value", [1e17, -1e17, 2.0**53, 1e300])
    def test_flat_column_beyond_unit_spacing_gets_a_partition(self, value, terms):
        # (v - 0.5, v + 0.5) rounds to (v, v) once float spacing at v exceeds 1
        m = DecisionMatrix("e", np.array([[value] * 3, [1.0, 2.0, 3.0]]).T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = membership_matrix([m], terms=terms, uniform_when_degenerate=True)
        assert np.array_equal(got.degrees[0, :, 0, :], np.full((3, terms), 1.0 / terms))
        part = got.partitions(0)[0]
        assert part.lower < value < part.upper
        assert got.partitions(0)[1] == LinguisticPartition(1.0, 3.0, terms - 1)

    @pytest.mark.parametrize("terms", [3, 5, 9])
    @pytest.mark.parametrize("value", [_MAX, -_MAX], ids=["+max", "-max"])
    def test_flat_column_at_float_max_keeps_a_finite_partition(self, value, terms):
        # the half-width is taken in ulps toward zero (2**971 at max), and the
        # window slides inward by it rather than pass the float range
        m = DecisionMatrix("e", np.array([[value] * 3, [1.0, 2.0, 3.0]]).T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = membership_matrix([m], terms=terms, uniform_when_degenerate=True)
            part = got.partitions(0)[0]
            assert LinguisticPartition(part.lower, part.upper, terms - 1) == part
        assert math.isfinite(part.lower) and math.isfinite(part.upper)
        width = 2 * (terms - 1) * 2.0**971
        expected = (value - width, value) if value > 0 else (value, value + width)
        assert (part.lower, part.upper) == expected
        assert np.array_equal(got.degrees[0, :, 0, :], np.full((3, terms), 1.0 / terms))

    @pytest.mark.parametrize("value", [-3.0, 1e15])
    def test_flat_column_keeps_unit_half_width(self, value):
        m = DecisionMatrix("e", np.array([[value] * 3, [1.0, 2.0, 3.0]]).T)
        part = membership_matrix([m], uniform_when_degenerate=True).partitions(0)[0]
        assert (part.lower, part.upper) == (value - 0.5, value + 0.5)

    @pytest.mark.parametrize("terms", [5, 7, 9])
    def test_span_beyond_float_range_is_taken_at_half_scale(self, terms):
        # hi - lo overflows; degrees are scale-invariant, so the column must
        # get exactly the degrees of its halves, with no warning
        rng = np.random.default_rng(terms)
        column = np.concatenate([[-1e308, 1.7e308, 0.0], rng.uniform(-1.0, 1.7, size=9) * 1e308])
        wide = DecisionMatrix("e", np.column_stack([column, np.arange(12.0)]))
        halved = DecisionMatrix("e", np.column_stack([column * 0.5, np.arange(12.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = membership_matrix([wide], terms=terms)
            expected = membership_matrix([halved], terms=terms)
            part, half = got.partitions(0)[0], expected.partitions(0)[0]
            peaks = [part.peak(t) for t in range(1, terms + 1)]
        assert np.array_equal(got.degrees, expected.degrees)
        assert (part.lower, part.upper) == (-1e308, 1.7e308)
        assert peaks == [2 * v for v in (half.peak(t) for t in range(1, terms + 1))]
        assert part.alpha == 2 * half.alpha

    @pytest.mark.parametrize(
        "lower, upper", [(0.0, 5e-324), (1.0, 1.0000000000000002)], ids=["zero-alpha", "peak-on-lower"],
    )
    def test_partition_rejects_unsplittable_domain(self, lower, upper):
        with pytest.raises(DegenerateDomainError, match="degenerate domain"):
            LinguisticPartition(lower, upper, 4)


@pytest.fixture
def built_partitions(monkeypatch):
    """Every ``LinguisticPartition`` constructed while the test runs."""
    built = []
    check = LinguisticPartition.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(LinguisticPartition, "__post_init__", counted)
    return built


class TestPartitionsOnRequest:
    """Column domains are arrays; partitions are built only when read."""

    @pytest.mark.parametrize("k, p, q", [(3, 240, 8), (64, 30, 4)])
    def test_pipeline_builds_no_partition(self, built_partitions, k, p, q):
        rng = np.random.default_rng(k)
        matrices = [DecisionMatrix(f"e{e}", rng.normal(size=(p, q))) for e in range(k)]
        result = run_pipeline(matrices, with_ranking=False)
        assert built_partitions == []
        parts = result.memberships.partitions(1)
        assert len(built_partitions) == q
        column = matrices[1].values
        segments = DEFAULT_TERMS - 1
        assert parts == tuple(LinguisticPartition(c, d, segments) for c, d in zip(column.min(0), column.max(0)))
        assert result.memberships.lo.shape == result.memberships.hi.shape == (k, q)

    @pytest.mark.parametrize("terms", [5, 9])
    def test_flat_stand_ins_read_as_partitions(self, terms):
        values = [-_MAX, _MAX, 2.0**53, -1e17, 1e300, -3.0]
        m = DecisionMatrix("e", np.column_stack([[v] * 3 for v in values] + [[1.0, 2.0, 3.0]]))
        got = membership_matrix([m], terms=terms, uniform_when_degenerate=True)
        segments = terms - 1
        expected = []
        for v in values:
            ulp = abs(v) - math.nextafter(abs(v), 0.0)
            half = 0.5 if abs(v) < 2.0**53 else segments * ulp
            lower, upper = v - half, v + half
            if abs(v) == _MAX:
                lower, upper = (v - 2 * half, v) if v > 0 else (v, v + 2 * half)
            expected.append(LinguisticPartition(lower, upper, segments))
        expected.append(LinguisticPartition(1.0, 3.0, segments))
        assert got.partitions(0) == tuple(expected)
        assert (got.lo.tolist(), got.hi.tolist()) == ([[e.lower for e in expected]], [[e.upper for e in expected]])

    def test_domains_are_read_only(self):
        got = membership_matrix([simple_matrix([[1.0, 4.0], [2.0, 3.0]])])
        for domain in (got.lo, got.hi):
            with pytest.raises(ValueError):
                domain[0, 0] = 0.0

    def test_unsplittable_stand_in_raises_at_membership_time(self, monkeypatch):
        # every real stand-in splits; a domain check that rejects every column
        # shows that membership_matrix itself, not a later partition read, raises
        monkeypatch.setattr(linguistic, "_unsplittable", lambda lo, hi, segments, scale=None: np.ones(np.shape(lo), bool))
        m = simple_matrix([[1.0, 4.0], [1.0, 3.0]])
        with pytest.raises(DegenerateDomainError, match=r"degenerate domain \[[-+.e0-9]+, [-+.e0-9]+\] for 4 segments"):
            membership_matrix([m], uniform_when_degenerate=True)

    def test_too_few_terms_is_an_error(self):
        with pytest.raises(ValueError, match="at least 2 segments"):
            membership_matrix([simple_matrix([[1.0], [2.0]])], terms=2)


def masked_select_kernel(values, lo, hi, segments, out):
    """Reference: each interior degree picks its edge by ``values > peak``."""
    scale = 1.0 - 0.5 * (hi * 0.5 - lo * 0.5 > _MAX / 2)
    if np.any(scale != 1.0):
        values, lo, hi = values * scale, lo * scale, hi * scale
    span = hi - lo
    offset = values - lo
    np.divide(offset, span, out=out[segments])
    np.subtract(1.0, out[segments], out=out[0])
    step = span / segments
    falling = np.empty_like(offset)
    for h in range(1, segments):
        peak = lo + h * step
        np.divide(offset, peak - lo, out=out[h])
        np.subtract(values, peak, out=falling)
        falling /= hi - peak
        np.subtract(1.0, falling, out=falling)
        np.copyto(out[h], falling, where=values > peak)
    return out


@st.composite
def kernel_columns(draw, segments):
    """One column's (values, lo, hi): values on the peaks, their neighbours,
    the ends and inside, for unit, negative, half-scale, integer-tie and
    ulp-narrow ranges."""
    kind = draw(st.sampled_from(["unit", "negative", "half-scale", "integer", "narrow"]))
    if kind == "unit":
        lo = draw(st.floats(-10.0, 10.0))
        hi = lo + draw(st.floats(1e-3, 100.0))
    elif kind == "negative":
        lo = draw(st.floats(-1e6, -1.0))
        hi = lo * draw(st.floats(0.01, 0.99))
    elif kind == "half-scale":
        # hi - lo overflows, so the kernel works on the halved column
        lo = draw(st.floats(-_MAX, -_MAX / 2))
        hi = draw(st.floats(_MAX / 2, _MAX))
    elif kind == "integer":
        lo = float(draw(st.integers(-20, 0)))
        hi = lo + draw(st.integers(segments, 3 * segments))
    else:
        lo = draw(st.floats(-1e3, 1e3))
        hi = lo
        for _ in range(draw(st.integers(2 * segments, 8 * segments))):
            hi = float(np.nextafter(hi, np.inf))
    assume(hi > lo)
    try:
        part = LinguisticPartition(lo, hi, segments)
    except DegenerateDomainError:
        assume(False)
    peaks = [part.peak(t) for t in range(1, segments + 2)]
    near = [float(np.nextafter(v, end)) for v in peaks for end in (lo, hi)]
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    inside = [lo * (1 - f) + hi * f for f in fractions]
    if kind == "integer":
        inside += [float(v) for v in range(int(lo), int(hi) + 1)]
    candidates = np.clip(np.array(peaks + near + inside), lo, hi)
    picks = draw(st.lists(st.integers(0, candidates.size - 1), min_size=2, max_size=24))
    return candidates[picks], lo, hi


@st.composite
def kernel_slabs(draw):
    """(values, lo, hi, segments) for a (p, columns) plane of mixed columns."""
    segments = draw(st.integers(2, 8))
    columns = draw(st.lists(kernel_columns(segments), min_size=1, max_size=5))
    p = min(len(v) for v, _, _ in columns)
    values = np.column_stack([v[:p] for v, _, _ in columns])
    lo = np.array([c for _, c, _ in columns])
    hi = np.array([d for _, _, d in columns])
    return values, lo, hi, segments


class TestMinEdgeKernel:
    """The min of the two interior edges equals the masked select bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(slab=kernel_slabs())
    def test_matches_masked_select(self, slab):
        values, lo, hi, segments = slab
        shape = (segments + 1,) + values.shape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _membership_kernel(values, lo, hi, _span_scale(lo, hi), segments, np.empty(shape))
        expected = masked_select_kernel(values, lo, hi, segments, np.empty(shape))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("segments", [2, 4, 8])
    def test_values_on_every_peak_get_degree_one(self, segments):
        part = LinguisticPartition(-3.0, 7.0, segments)
        peaks = np.array([part.peak(t) for t in range(1, segments + 2)])
        lo, hi = part.lower, part.upper
        got = _membership_kernel(peaks, lo, hi, _span_scale(lo, hi), segments, np.empty((segments + 1, peaks.size)))
        assert np.array_equal(np.diag(got), np.ones(segments + 1))


class TestBpaTensor:
    def test_reference_expert_matches_published_table(self):
        computed = bpa_tensor(membership_matrix(ref.decision_matrices()[:1])).masses[0]
        np.testing.assert_allclose(computed.reshape(17, -1), ref.PUBLISHED_MASSES_U1, atol=1e-4)

    def test_first_candidate_first_term_share(self):
        computed = bpa_tensor(membership_matrix(ref.decision_matrices()[:1])).masses[0]
        assert computed[0, 0, 0] == pytest.approx(0.25 / 7.125, abs=1e-12)
        assert computed[0, 0, 0] == pytest.approx(0.0351, abs=1e-4)

    def test_uniform_memberships_share_equally(self):
        m = simple_matrix([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]])
        r = membership_matrix([m])
        r.degrees[:] = 0.5
        masses = bpa_tensor(r).masses
        np.testing.assert_allclose(masses, 0.25, atol=1e-12)

    def test_one_hot_column(self):
        m = simple_matrix([[1.0], [2.0], [3.0]])
        r = membership_matrix([m])
        r.degrees[0, :, 0, 2] = [0.0, 1.0, 0.0]
        masses = bpa_tensor(r).masses[0]
        np.testing.assert_allclose(masses[:, 0, 2], [0.0, 1.0, 0.0], atol=1e-12)

    def test_columns_sum_to_one_or_are_flagged(self):
        m = simple_matrix([[1.0], [2.0], [3.0]])
        r = membership_matrix([m])
        r.degrees[0, :, 0, 1] = 0.0
        tensor = bpa_tensor(r)
        sums = tensor.masses[0].sum(axis=0)
        assert tensor.zero_columns == ((0, 0, 1),)
        np.testing.assert_allclose(np.delete(sums[0], 1), 1.0, atol=1e-9)
        assert sums[0, 1] == 0.0

    def test_normalization_order_is_immaterial(self):
        # normalising the decision matrix before or after membership
        # computation gives bit-comparable masses
        rng = np.random.default_rng(6)
        m = simple_matrix(rng.uniform(20, 80, size=(9, 2)))
        direct = bpa_tensor(membership_matrix([m])).masses
        normalized = DecisionMatrix(m.expert_id, normalize_decision_matrix([m])[0])
        via_normalized = bpa_tensor(membership_matrix([normalized])).masses
        np.testing.assert_allclose(direct, via_normalized, atol=1e-12)


class TestGroupSlab:
    """A group pass's stacks are views of one (terms, k*q, p) slab, expert
    e's block its rows e*q to (e + 1)*q; a slab read back from a slice of
    experts is a view, and from any other selection a copy."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(9)
        return [simple_matrix(rng.uniform(0, 9, size=(5, 3)), f"e{e}") for e in range(4)]

    @pytest.mark.parametrize(
        "order", [(0, 1, 2, 3), (1, 2), (3,), (2, 1), (0, 2), (3, 2, 1, 0)],
        ids=["whole", "middle", "last", "swapped", "gap", "reversed"],
    )
    def test_equals_the_stacked_columns(self, order):
        group = membership_matrix(self.matrices())
        in_order = list(order) == list(range(order[0], order[-1] + 1))
        stack = group.degrees[order[0]:order[-1] + 1] if in_order else group.degrees[list(order)]
        expected = np.concatenate([group.degrees[e].transpose(2, 1, 0) for e in order], axis=1)
        got = term_slab(stack)
        assert np.array_equal(got, expected)
        assert np.shares_memory(got, group.degrees) == in_order

    def test_each_expert_reads_its_own_rows(self):
        group = membership_matrix(self.matrices())
        tensor = bpa_tensor(group)
        for stack in (group.degrees, tensor.masses):
            slab = term_slab(stack)
            assert np.shares_memory(slab, stack) and slab.flags.c_contiguous
            for e in range(4):
                assert np.shares_memory(stack[e], slab[:, 3 * e:3 * e + 3])
                assert np.array_equal(stack[e].transpose(2, 1, 0), slab[:, 3 * e:3 * e + 3])

    def test_masses_of_a_subgroup_equal_the_group_masses(self):
        matrices = self.matrices()
        group = membership_matrix(matrices)
        whole = bpa_tensor(group)
        for keep in ([1, 2], [3, 0]):
            alone = bpa_tensor(membership_matrix([matrices[e] for e in keep]))
            sub = bpa_tensor(MembershipMatrix(group.degrees[keep], group.lo[keep], group.hi[keep], group.segments))
            assert np.array_equal(alone.masses, whole.masses[keep])
            assert np.array_equal(sub.masses, whole.masses[keep])

    @pytest.mark.parametrize(
        "shapes", [[(17, 2), (17, 3)], [(17, 2), (12, 2)], [(5, 1), (5, 3), (5, 2), (5, 4)]],
        ids=["attributes", "alternatives", "mixed-widths"],
    )
    def test_experts_of_different_shapes_are_refused(self, shapes):
        rng = np.random.default_rng(5)
        matrices = [DecisionMatrix(f"e{e}", rng.uniform(0, 9, size=shape)) for e, shape in enumerate(shapes)]
        with pytest.raises(ValueError, match=rf"expert 'e1' matrix shape {re.escape(str(shapes[1]))} != "):
            membership_matrix(matrices)


class TestDecisionMatrixValidation:
    def test_minimum_shape(self):
        with pytest.raises(ValueError):
            simple_matrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            simple_matrix([[1.0], [np.nan]])

    def test_label_defaults(self):
        m = simple_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.alternative_labels == ("1", "2")
        assert m.attribute_labels == ("t1", "t2")

    @pytest.mark.parametrize(
        "alternatives, attributes, message",
        [
            (("z", "y", "x", "x"), ("a", "b"), "alternative label 'x' repeats"),
            (("x", "y", "x", "y"), ("a", "b"), "alternative label 'x' repeats"),
            ((), ("a", "b", "a", "c", "c"), "attribute label 'a' repeats"),
        ],
        ids=["alternative-pair", "two-alternative-pairs", "attributes"],
    )
    def test_repeated_labels_are_refused(self, alternatives, attributes, message):
        values = np.arange(4.0 * len(attributes)).reshape(4, -1)
        with pytest.raises(ValueError, match=f"{message} in decision matrix 'e'"):
            DecisionMatrix("e", values, alternatives, attributes)
