"""Linguistic partition, membership, and mass-tensor tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evidential_magdm import recruitment as ref
from evidential_magdm.errors import (
    DegenerateAttributeError,
    DegenerateDomainError,
    OutOfDomainError,
)
from evidential_magdm.linguistic import (
    DecisionMatrix,
    LinguisticPartition,
    bpa_tensor,
    build_partition,
    membership,
    membership_matrix,
    memberships,
    normalize_decision_matrix,
)


def simple_matrix(values, expert="x"):
    return DecisionMatrix(expert, np.asarray(values, dtype=float))


class TestNormalize:
    def test_three_four_five(self):
        m = simple_matrix([[3.0], [4.0]])
        out = normalize_decision_matrix(m)
        np.testing.assert_allclose(out.values[:, 0], [0.6, 0.8])

    def test_reference_column_oracle(self):
        # oracle: explicit sum of squares over the bundled panel column
        panel = [row[0] for row in ref.RAW_SCORES["u1"]]
        norm = math.sqrt(sum(v * v for v in panel))
        assert norm == pytest.approx(math.sqrt(92925.0))
        m = ref.decision_matrices()[0]
        out = normalize_decision_matrix(m)
        assert out.values[0, 0] == pytest.approx(80.0 / norm)
        assert out.values[0, 0] == pytest.approx(0.2624, abs=5e-5)

    def test_scale_invariance(self):
        m = simple_matrix([[1.0, 5.0], [2.0, 3.0], [4.0, 1.0]])
        scaled = simple_matrix(m.values * 7.5)
        np.testing.assert_allclose(
            normalize_decision_matrix(m).values,
            normalize_decision_matrix(scaled).values,
            atol=1e-15,
        )

    def test_zero_column_rejected(self):
        m = simple_matrix([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(DegenerateAttributeError):
            normalize_decision_matrix(m)

    def test_unit_column_norms(self):
        rng = np.random.default_rng(2)
        m = simple_matrix(rng.uniform(1, 9, size=(6, 4)))
        out = normalize_decision_matrix(m)
        np.testing.assert_allclose((out.values ** 2).sum(axis=0), 1.0, atol=1e-12)


class TestBuildPartition:
    def test_reference_panel_extremes(self):
        panel = np.array([row[0] for row in ref.RAW_SCORES["u1"]], dtype=float)
        part = build_partition(panel, segments=4)
        assert (part.lower, part.upper) == (50.0, 90.0)
        assert part.alpha == pytest.approx(10.0)
        assert part.term_count == 5

    def test_unit_interval(self):
        part = build_partition(np.array([0.0, 1.0]), segments=2)
        assert (part.lower, part.upper, part.alpha) == (0.0, 1.0, 0.5)

    def test_degenerate_domain(self):
        with pytest.raises(DegenerateDomainError):
            build_partition(np.array([5.0, 5.0, 5.0]))

    def test_interior_peaks(self):
        part = build_partition(np.array([0.0, 8.0]), segments=4)
        assert [part.peak(t) for t in range(1, 6)] == [0.0, 2.0, 4.0, 6.0, 8.0]


class TestMembership:
    PART = build_partition(np.array([50.0, 90.0]), segments=4)

    def test_published_row_values(self):
        got = memberships(np.array([80.0]), self.PART)[0]
        np.testing.assert_allclose(got, [0.25, 1 / 3, 0.5, 1.0, 0.75], atol=1e-12)

    def test_lower_endpoint(self):
        assert membership(50.0, 1, self.PART) == pytest.approx(1.0)
        assert membership(50.0, 5, self.PART) == pytest.approx(0.0)

    def test_upper_endpoint(self):
        got = memberships(np.array([90.0]), self.PART)[0]
        np.testing.assert_allclose(got, [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_interior_terms_peak_at_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo, width = rng.uniform(-5, 5), rng.uniform(0.5, 10)
            segments = int(rng.integers(2, 9))
            part = build_partition(np.array([lo, lo + width]), segments=segments)
            for term in range(2, part.term_count):
                assert membership(part.peak(term), term, part) == pytest.approx(1.0)

    def test_bounded_on_domain(self):
        rng = np.random.default_rng(4)
        part = build_partition(np.array([-2.0, 3.0]), segments=4)
        values = rng.uniform(-2.0, 3.0, size=100_000)
        mu = memberships(values, part)
        assert mu.min() >= -1e-12 and mu.max() <= 1.0 + 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            membership(49.0, 1, self.PART)
        assert membership(49.0, 1, self.PART, clamp=True) == pytest.approx(1.0)

    def test_term_index_validation(self):
        with pytest.raises(ValueError):
            membership(60.0, 6, self.PART)


class TestMembershipMatrix:
    def test_reference_expert_matches_published_table(self):
        table = ref.PUBLISHED_MEMBERSHIPS_U1.copy()
        for cell, corrected in ref.MEMBERSHIP_ERRATA.items():
            table[cell] = corrected
        computed = membership_matrix(ref.decision_matrices()[0]).blocked()
        np.testing.assert_allclose(computed, table, atol=1e-4)

    def test_extremes_one_hot(self):
        m = simple_matrix([[0.0], [1.0], [0.5]])
        degrees = membership_matrix(m).degrees[:, 0, :]
        np.testing.assert_allclose(degrees[0], [1, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(degrees[1], [0, 0, 0, 0, 1], atol=1e-12)

    def test_scaling_leaves_memberships_unchanged(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(10, 99, size=(8, 3))
        base = membership_matrix(simple_matrix(values)).degrees
        scaled = membership_matrix(simple_matrix(values * 3.7)).degrees
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_degenerate_column_error_names_attribute(self):
        m = DecisionMatrix("e", np.array([[1.0, 2.0], [1.0, 3.0]]), ("A", "B"), ("t1", "t2"))
        with pytest.raises(DegenerateDomainError, match="t1"):
            membership_matrix(m)

    def test_degenerate_column_uniform_override(self):
        m = simple_matrix([[1.0, 2.0], [1.0, 3.0]])
        degrees = membership_matrix(m, uniform_when_degenerate=True).degrees
        np.testing.assert_allclose(degrees[:, 0, :], 0.2, atol=1e-12)


def term_loop_memberships(values, partition, clamp=False):
    """Oracle: one term at a time, peaks from ``LinguisticPartition.peak``."""
    arr = np.asarray(values, dtype=float)
    lo, hi, bins = partition.lower, partition.upper, partition.segments
    if clamp:
        arr = np.clip(arr, lo, hi)
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
    @given(values=matrices_with_flat_columns(), terms=st.integers(5, 9), clamp=st.booleans())
    def test_matrix_equals_per_column_reference(self, values, terms, clamp):
        m = DecisionMatrix("x", values)
        got = membership_matrix(m, terms=terms, clamp=clamp, uniform_when_degenerate=True)
        for j in range(values.shape[1]):
            column = values[:, j]
            if column.min() == column.max():
                v = float(column[0])
                expected = np.full((column.size, terms), 1.0 / terms)
                part = LinguisticPartition(v - 0.5, v + 0.5, terms - 1)
            else:
                part = build_partition(column, terms - 1)
                expected = memberships(column, part)
                assert np.array_equal(expected, term_loop_memberships(column, part))
            assert np.array_equal(got.degrees[:, j, :], expected)
            assert got.partitions[j] == part

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        column=hnp.arrays(float, st.integers(2, 20), elements=st.floats(-50.0, 50.0, width=64)),
        lo=st.floats(-40.0, 0.0),
        width=st.floats(1e-3, 60.0),
        segments=st.integers(4, 8),
    )
    def test_clamped_values_equal_term_loop(self, column, lo, width, segments):
        part = LinguisticPartition(lo, lo + width, segments)
        got = memberships(column, part, clamp=True)
        assert np.array_equal(got, term_loop_memberships(column, part, clamp=True))

    def test_out_of_domain_message_names_value_and_domain(self):
        part = LinguisticPartition(-1.0, 2.5, 4)
        with pytest.raises(OutOfDomainError, match=r"value 3\.0 outside partition domain \[-1\.0, 2\.5\]"):
            memberships(np.array([0.0, 3.0, -4.0]), part)

    def test_flat_column_error_names_first_flat_attribute(self):
        values = np.array([[1.0, 2.0, 7.0, 4.0], [3.0, 2.0, 7.0, 5.0]])
        m = DecisionMatrix("e", values, ("A", "B"), ("t1", "t2", "t3", "t4"))
        with pytest.raises(DegenerateDomainError, match="attribute 't2' of expert 'e' has a single observed value"):
            membership_matrix(m)


class TestBpaTensor:
    def test_reference_expert_matches_published_table(self):
        computed = bpa_tensor(membership_matrix(ref.decision_matrices()[0]))
        np.testing.assert_allclose(computed.blocked(), ref.PUBLISHED_MASSES_U1, atol=1e-4)

    def test_first_candidate_first_term_share(self):
        computed = bpa_tensor(membership_matrix(ref.decision_matrices()[0]))
        assert computed.masses[0, 0, 0] == pytest.approx(0.25 / 7.125, abs=1e-12)
        assert computed.masses[0, 0, 0] == pytest.approx(0.0351, abs=1e-4)

    def test_uniform_memberships_share_equally(self):
        m = simple_matrix([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]])
        r = membership_matrix(m)
        r.degrees[:] = 0.5
        masses = bpa_tensor(r).masses
        np.testing.assert_allclose(masses, 0.25, atol=1e-12)

    def test_one_hot_column(self):
        m = simple_matrix([[1.0], [2.0], [3.0]])
        r = membership_matrix(m)
        r.degrees[:, 0, 2] = [0.0, 1.0, 0.0]
        masses = bpa_tensor(r).masses
        np.testing.assert_allclose(masses[:, 0, 2], [0.0, 1.0, 0.0], atol=1e-12)

    def test_columns_sum_to_one_or_are_flagged(self):
        m = simple_matrix([[1.0], [2.0], [3.0]])
        r = membership_matrix(m)
        r.degrees[:, 0, 1] = 0.0
        tensor = bpa_tensor(r)
        sums = tensor.masses.sum(axis=0)
        assert tensor.zero_columns == ((0, 1),)
        np.testing.assert_allclose(np.delete(sums[0], 1), 1.0, atol=1e-9)
        assert sums[0, 1] == 0.0

    def test_normalization_order_is_immaterial(self):
        # normalising the decision matrix before or after membership
        # computation gives bit-comparable masses
        rng = np.random.default_rng(6)
        m = simple_matrix(rng.uniform(20, 80, size=(9, 2)))
        direct = bpa_tensor(membership_matrix(m)).masses
        via_normalized = bpa_tensor(membership_matrix(normalize_decision_matrix(m))).masses
        np.testing.assert_allclose(direct, via_normalized, atol=1e-12)


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
