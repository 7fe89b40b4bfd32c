"""Divergence measure tests with independent formula oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from evidential_magdm import divergence
from evidential_magdm.divergence import (
    LogBase,
    _mixture_terms,
    entropy,
    generalized_belief_divergence,
    generalized_js_divergence,
    js_cells,
    js_divergence,
    kl_divergence,
    ordered_mixture_terms,
    pair_cells,
    weighted_belief_divergence,
)
from evidential_magdm.config import RunConfig
from evidential_magdm.errors import ConfigError, DivergenceUndefinedError, NegativeDivergenceError
from evidential_magdm.evidence import Bpa, FrameOfDiscernment, PseudoBpa, wpbl
from evidential_magdm.linguistic import DecisionMatrix
from evidential_magdm.pipeline import pairwise_divergence, run_pipeline

from decimal_oracle import pair_totals, relative_errors

AB = FrameOfDiscernment(("a", "b"))
SINGLETONS = [["a"], ["b"]]


def manual_kl(a, b, base=2.0):
    return sum(x * math.log(x / y, base) for x, y in zip(a, b) if x > 0)


def manual_js(a, b, base=2.0):
    mix = [(x + y) / 2 for x, y in zip(a, b)]
    return 0.5 * (manual_kl(a, mix, base) + manual_kl(b, mix, base))


def manual_ordered_pair(a, b, w, base=2.0):
    # per proposition the larger value takes w[0]: sum w_f v_f log(v_f / mix)
    total = 0.0
    for x, y in zip(a, b):
        hi, lo = max(x, y), min(x, y)
        mix = w[0] * hi + w[1] * lo
        total += sum(wf * v * math.log(v / mix, base) for wf, v in ((w[0], hi), (w[1], lo)) if wf > 0 and v > 0)
    return total


def singleton_profile(mass, n):
    # singleton focal sets only, so Bel = Pl = m and the profile is m / sum(m)
    raw = [mass.masses.get(1 << i, 0.0) for i in range(n)]
    return [v / sum(raw) for v in raw]


class TestLogBase:
    def test_parse(self):
        assert LogBase.parse("2") is LogBase.TWO
        assert LogBase.parse(2) is LogBase.TWO
        assert LogBase.parse("e") is LogBase.NATURAL
        with pytest.raises(ConfigError):
            LogBase.parse("10")

    def test_base_scaling(self):
        a, b = (0.7, 0.3), (0.5, 0.5)
        assert kl_divergence(a, b, LogBase.NATURAL) == pytest.approx(
            kl_divergence(a, b, LogBase.TWO) * math.log(2), abs=1e-12
        )


class TestKl:
    def test_identical(self):
        assert kl_divergence((0.5, 0.5), (0.5, 0.5)) == pytest.approx(0.0)

    def test_point_mass(self):
        assert kl_divergence((1.0, 0.0), (0.5, 0.5)) == pytest.approx(1.0)

    def test_formula_oracle(self):
        a, b = (0.7, 0.3), (0.5, 0.5)
        assert kl_divergence(a, b) == pytest.approx(manual_kl(a, b), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(DivergenceUndefinedError):
            kl_divergence((0.5, 0.5), (1.0, 0.0))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            kl_divergence((0.5, 0.4), (0.5, 0.5))
        with pytest.raises(ValueError):
            kl_divergence((0.5, 0.5), (0.5, 0.25, 0.25))


class TestJs:
    def test_identical(self):
        assert js_divergence((0.3, 0.7), (0.3, 0.7)) == pytest.approx(0.0)

    def test_disjoint_maximal(self):
        assert js_divergence((1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0)

    def test_symmetric_with_kl_oracle(self):
        a, b = (0.8, 0.2), (0.2, 0.8)
        expected = manual_js(a, b)
        assert js_divergence(a, b) == pytest.approx(expected, abs=1e-12)
        assert js_divergence(b, a) == pytest.approx(expected, abs=1e-12)

    def test_zero_coordinates_allowed(self):
        assert js_divergence((1.0, 0.0), (0.5, 0.5)) > 0

    def test_random_pairs_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = rng.integers(2, 6)
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
            d = js_divergence(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12
            assert d == pytest.approx(js_divergence(b, a), abs=1e-12)

    def test_near_identical_distributions_match_decimal_oracle(self):
        # about 1.2e-19 bits; the signed log-ratio terms summed to -1.3e-16
        rng = np.random.default_rng(5)
        a = rng.dirichlet(np.ones(8))
        b = a * (1 + 1e-9 * rng.standard_normal(8))
        b /= b.sum()
        assert_matches_oracle([js_divergence(a, b)], pair_totals(a[None, :], b[None, :]))


class TestGeneralizedJs:
    def test_identical_distributions(self):
        d = (0.2, 0.3, 0.5)
        assert generalized_js_divergence([d, d, d], (0.2, 0.5, 0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_reduction_to_maximal(self):
        value = generalized_js_divergence([(1.0, 0.0), (0.0, 1.0)], (0.5, 0.5))
        assert value == pytest.approx(1.0)

    def test_entropy_vs_kl_decomposition(self):
        # oracle: sum_i w_i KL(A_i || mixture) must equal H(mix) - sum w_i H(A_i)
        rng = np.random.default_rng(5)
        for _ in range(100):
            dists = [rng.dirichlet(np.ones(4)) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            mixture = sum(wi * d for wi, d in zip(w, dists))
            oracle = sum(wi * manual_kl(d, mixture) for wi, d in zip(w, dists))
            assert generalized_js_divergence(dists, w) == pytest.approx(oracle, abs=1e-9)

    def test_pairwise_reduction(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            value = generalized_js_divergence([a, b], (0.5, 0.5))
            assert value == pytest.approx(manual_js(a, b), abs=1e-12)
            assert value == pytest.approx(js_divergence(a, b), abs=1e-9)


def profile_js(m1, m2, propositions):
    """Belief JS by definition: the JS divergence of the two wpbl profiles."""
    return js_divergence(wpbl(m1, propositions).values, wpbl(m2, propositions).values)


class TestBeliefJs:
    """``weighted_belief_divergence`` at its default weights (1/2, 1/2)."""

    def test_identical_masses(self):
        m = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        assert weighted_belief_divergence(m, m, SINGLETONS) == pytest.approx(0.0)

    def test_disjoint_certain_masses(self):
        m1 = Bpa(AB, {"a": 1.0})
        m2 = Bpa(AB, {"b": 1.0})
        assert weighted_belief_divergence(m1, m2, SINGLETONS) == pytest.approx(1.0)
        assert profile_js(m1, m2, SINGLETONS) == pytest.approx(1.0)

    def test_manual_profile_oracle(self):
        m1 = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        m2 = Bpa(AB, {"a": 0.5, "b": 0.5})
        # oracle: profiles (0.55, 0.45) and (0.5, 0.5), then plain JS
        expected = manual_js((0.55, 0.45), (0.5, 0.5))
        value = weighted_belief_divergence(m1, m2, SINGLETONS)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(profile_js(m1, m2, SINGLETONS), abs=1e-12)


class TestWeightedBeliefDivergence:
    def test_zero_on_equal_inputs(self):
        m = Bpa(AB, {"a": 0.7, "b": 0.3})
        assert weighted_belief_divergence(m, m, SINGLETONS, (0.3, 0.7)) == pytest.approx(0.0)

    def test_uniform_weights_reduce_to_bjs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a1, b1 = rng.dirichlet(np.ones(2))
            a2, b2 = rng.dirichlet(np.ones(2))
            m1 = PseudoBpa(AB, {"a": a1 * 0.9, "b": b1 * 0.9})
            m2 = PseudoBpa(AB, {"a": a2 * 0.9, "b": b2 * 0.9})
            value = weighted_belief_divergence(m1, m2, SINGLETONS)
            # oracle: singleton-only masses have profile m / sum(m) = (a, b)
            assert value == pytest.approx(manual_js((a1, b1), (a2, b2)), abs=1e-12)
            assert value == pytest.approx(profile_js(m1, m2, SINGLETONS), abs=1e-9)

    def test_term_by_term_oracle(self):
        m1 = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        m2 = Bpa(AB, {"a": 0.5, "b": 0.5})
        w1, w2 = 0.7, 0.3
        profiles = {"m1": (0.55, 0.45), "m2": (0.5, 0.5)}
        # oracle: larger value pairs with w1 at every proposition
        expected = 0.0
        for j in range(2):
            hi = max(profiles["m1"][j], profiles["m2"][j])
            lo = min(profiles["m1"][j], profiles["m2"][j])
            mix = w1 * hi + w2 * lo
            expected += w1 * hi * math.log2(hi / mix) + w2 * lo * math.log2(lo / mix)
        value = weighted_belief_divergence(m1, m2, SINGLETONS, (w1, w2))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_weight_validation(self):
        m = Bpa(AB, {"a": 1.0})
        with pytest.raises(ValueError):
            weighted_belief_divergence(m, m, SINGLETONS, (0.7, 0.6))


def random_pseudo(rng, frame, labels):
    values = rng.dirichlet(np.ones(len(labels))) * rng.uniform(0.3, 1.0)
    return PseudoBpa(frame, {label: float(v) for label, v in zip(labels, values)})


class TestGeneralizedBeliefDivergence:
    FRAME = FrameOfDiscernment(("a", "b", "c"))
    PROPS = [["a"], ["b"], ["c"]]

    def test_zero_when_all_equal(self):
        m = Bpa(self.FRAME, {"a": 0.2, "b": 0.3, "c": 0.5})
        assert generalized_belief_divergence([m, m, m], self.PROPS, (0.2, 0.3, 0.5)) == pytest.approx(0.0)

    def test_pairwise_reduction_on_singletons(self):
        rng = np.random.default_rng(4)
        labels = ("a", "b", "c")
        for _ in range(50):
            m1 = random_pseudo(rng, self.FRAME, labels)
            m2 = random_pseudo(rng, self.FRAME, labels)
            w = rng.dirichlet(np.ones(2))
            value = generalized_belief_divergence([m1, m2], self.PROPS, w)
            a, b = singleton_profile(m1, 3), singleton_profile(m2, 3)
            assert value == pytest.approx(manual_ordered_pair(a, b, w), abs=1e-12)
            assert value == pytest.approx(
                weighted_belief_divergence(m1, m2, self.PROPS, w), abs=1e-9
            )

    def test_three_way_direct_formula_oracle(self):
        rng = np.random.default_rng(12)
        labels = ("a", "b", "c")
        from evidential_magdm.evidence import wpbl

        for _ in range(30):
            ms = [random_pseudo(rng, self.FRAME, labels) for _ in range(3)]
            w = np.full(3, 1 / 3)
            profiles = np.vstack([wpbl(m, self.PROPS).values for m in ms])
            # oracle: per proposition, sort values descending and sum
            # w_f * v_f * log2(v_f / mixture); singleton cardinality is 1
            expected = 0.0
            for j in range(3):
                column = sorted(profiles[:, j], reverse=True)
                mix = sum(wf * v for wf, v in zip(w, column))
                for wf, v in zip(w, column):
                    if v > 0:
                        expected += wf * v * math.log2(v / mix)
            value = generalized_belief_divergence(ms, self.PROPS, w)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_cardinality_damping(self):
        # non-singleton propositions divide each contribution by |A|
        m1 = PseudoBpa(self.FRAME, {"a": 0.6, "b": 0.2})
        m2 = PseudoBpa(self.FRAME, {"a": 0.2, "b": 0.6})
        singles = generalized_belief_divergence([m1, m2], [["a"], ["b"]], (0.5, 0.5))
        bigger = [["a"], ["b"], ["a", "b"]]
        with_pair = generalized_belief_divergence([m1, m2], bigger, (0.5, 0.5))
        assert with_pair != pytest.approx(singles)

    def test_masses_permutation_invariance(self):
        # reordering the mass list (weights fixed) leaves the value unchanged
        rng = np.random.default_rng(13)
        labels = ("a", "b", "c")
        ms = [random_pseudo(rng, self.FRAME, labels) for _ in range(4)]
        w = (0.4, 0.3, 0.2, 0.1)
        reference = generalized_belief_divergence(ms, self.PROPS, w)
        for _ in range(5):
            perm = rng.permutation(4)
            shuffled = [ms[i] for i in perm]
            assert generalized_belief_divergence(shuffled, self.PROPS, w) == pytest.approx(
                reference, abs=1e-12
            )

    def test_requires_two_masses(self):
        m = Bpa(self.FRAME, {"a": 1.0})
        with pytest.raises(ValueError):
            generalized_belief_divergence([m], self.PROPS, (1.0,))


@st.composite
def two_row_columns(draw, n=None, zeros=True):
    """(2, n) nonnegative arrays in which some columns tie and, with
    ``zeros``, some hold zeros; without, every value is positive."""
    if n is None:
        n = draw(st.integers(1, 40))
    value = st.floats(0.0, 1.0, exclude_min=not zeros, allow_subnormal=False)
    rows = np.array([draw(st.lists(value, min_size=n, max_size=n)) for _ in range(2)])
    kinds = ["free", "tie", "zero", "zeros"] if zeros else ["free", "tie"]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    for j, kind in enumerate(kinds):
        if kind == "tie":
            rows[1, j] = rows[0, j]
        elif kind == "zero":
            rows[draw(st.integers(0, 1)), j] = 0.0
        elif kind == "zeros":
            rows[:, j] = 0.0
    return rows


# (0.3, 0.7) and (0.9, 0.1) are not dyadic, so their mix is where a change of layout can round differently
PAIR_WEIGHTS = [(0.5, 0.5), (0.8, 0.2), (0.3, 0.7), (0.9, 0.1), (1.0, 0.0), (0.0, 1.0)]
# every pair but (1/2, 1/2) orders its cells, equal weights near 1/2 included
ORDERED_PAIR_WEIGHTS = PAIR_WEIGHTS[1:] + [(0.5000000001, 0.5000000001)]


class TestOrderedMixtureTerms:
    """Two sorted rows must sum to the pair kernel's ordered cells bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        values=st.one_of(two_row_columns(), two_row_columns(zeros=False)),
        weights=st.sampled_from(ORDERED_PAIR_WEIGHTS),
        base=st.sampled_from(list(LogBase)),
        narrow=st.booleans(),
    )
    def test_two_rows_equal_sorted_kernel(self, values, weights, base, narrow):
        w = np.array(weights)
        narrow = narrow and bool(values.all())  # narrow promises that no value is 0
        cells = pair_cells(values[0], values[1], w, base, narrow)
        assert np.array_equal(ordered_mixture_terms(values, w, base).sum(axis=0), cells)

    def sort_calls(self, monkeypatch, values, weights):
        calls = []
        real_sort = np.sort

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(divergence.np, "sort", spy)
        terms = ordered_mixture_terms(values, np.array(weights), LogBase.TWO)
        monkeypatch.undo()
        return terms, calls

    def test_three_rows_keep_the_sort(self, monkeypatch):
        values = np.array([[0.1, 0.7, 0.0, 0.3], [0.4, 0.7, 0.2, 0.3], [0.5, 0.0, 0.2, 0.3]])
        w = np.array([0.5, 0.3, 0.2])
        expected = _mixture_terms(np.sort(values, axis=0)[::-1], w, LogBase.TWO)
        terms, calls = self.sort_calls(monkeypatch, values, w)
        assert calls == [(3, 4)]
        assert np.array_equal(terms, expected)


class TestEntropy:
    def test_uniform(self):
        assert entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)

    def test_point_mass(self):
        assert entropy((1.0, 0.0)) == pytest.approx(0.0)


@st.composite
def profile_pairs(draw):
    """Two (p, q) nonnegative profiles whose cells tie or hold zeros."""
    p, q = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows = draw(two_row_columns(p * q))
    return rows[0].reshape(p, q), rows[1].reshape(p, q)


def stacked_pair_divergence(a, b, weights, base):
    """The sorted (2, n) stack of the attribute-major cells through
    ``_mixture_terms``, each alternative's q cells summed in attribute order."""
    stacked = np.sort(np.stack([np.ravel(a.T), np.ravel(b.T)]), axis=0)[::-1]
    terms = _mixture_terms(stacked, np.array(weights), base).sum(axis=0)
    return terms.reshape(a.shape[::-1]).sum(axis=0)


@st.composite
def near_profile_pairs(draw):
    """Two (p, q) profiles whose cells tie, differ by a relative eps from 1e-1
    down to 1e-12, lie up to 200 decades apart or hold one or two zeros;
    sometimes the second profile copies the first outright."""
    p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.0, 1.0, size=(p, q))
    if draw(st.booleans()):
        return a, a.copy()
    b = rng.uniform(0.0, 1.0, size=(p, q))
    kinds = draw(st.lists(
        st.sampled_from(["free", "tie", "near", "far", "zero", "zeros"]), min_size=p * q, max_size=p * q,
    ))
    for cell, kind in zip(np.ndindex(p, q), kinds):
        if kind == "tie":
            b[cell] = a[cell]
        elif kind == "near":
            b[cell] = a[cell] * (1 + 10.0 ** -rng.integers(1, 13) * rng.standard_normal())
        elif kind == "far":
            b[cell] = a[cell] * 10.0 ** rng.uniform(-200, 200)
        elif kind == "zero":
            (a, b)[rng.integers(2)][cell] = 0.0
        elif kind == "zeros":
            a[cell] = b[cell] = 0.0
    return a, b


def assert_matches_oracle(got, expected):
    errors = relative_errors(got, expected)
    assert max(errors) <= 1e-13, (errors, got)


class TestPairwiseDivergenceKernel:
    """At pair weights (1/2, 1/2) every per-alternative value is exact to about
    1e-15 relative, however close the two profiles are; other weights read the
    two profiles without stacking them, and the bits must not move."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        profiles=profile_pairs(),
        weights=st.sampled_from(ORDERED_PAIR_WEIGHTS),
        base=st.sampled_from(list(LogBase)),
    )
    def test_equals_stacked_reference(self, profiles, weights, base):
        a, b = profiles
        got = pairwise_divergence(a, b, weights, base)
        assert np.array_equal(got, stacked_pair_divergence(a, b, weights, base))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(profiles=near_profile_pairs(), base=st.sampled_from(list(LogBase)))
    def test_half_weights_match_decimal_oracle(self, profiles, base):
        a, b = profiles
        expected = pair_totals(a, b, base=base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for first, second in ((a, b), (b, a)):
                assert_matches_oracle(pairwise_divergence(first, second, (0.5, 0.5), base), expected)
                cells = js_cells(np.ravel(first.T), np.ravel(second.T))
                assert np.all(cells >= 0)

    @pytest.mark.parametrize("ratio", [1 + 1e-12, 1.5, 3.0, 1e6, 1e100])
    def test_narrow_and_checked_cells_agree_with_the_oracle(self, ratio):
        # the cells of one row sit on both sides of the factor-3 line
        a = np.linspace(0.05, 0.5, 12)
        b = a * ratio ** np.linspace(-1, 1, 12)
        expected = pair_totals(a[None, :], b[None, :], base=LogBase.NATURAL)
        for narrow in (False, True) if ratio <= 3 else (False,):
            total = js_cells(a, b, narrow).sum() / 4
            assert_matches_oracle([total], expected)

    def test_weight_count_checked(self):
        profile = np.array([[0.5, 0.5]])
        for weights in ((0.5, 0.25, 0.25), (1.0,)):
            with pytest.raises(ValueError, match=f"2 weights, got {len(weights)}"):
                pairwise_divergence(profile, profile, weights)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0)])
    def test_zero_weight_pairs_emit_no_warning(self, weights):
        a = np.array([[0.0, 0.5, 0.5], [0.2, 0.0, 0.8]])
        b = np.array([[0.3, 0.0, 0.7], [0.2, 0.0, 0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pairwise_divergence(a, b, weights)
        assert np.array_equal(got, stacked_pair_divergence(a, b, weights, LogBase.TWO))
        assert np.all(np.isfinite(got))

    @pytest.mark.xfail(
        strict=True,
        reason="unequal pair weights still sum the signed terms w v log(v / mix), which cancel "
        "for near-identical values; a phi-series form of the cell would mend it",
    )
    def test_unequal_weights_near_duplicates_match_decimal_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.05, 0.5, size=(20, 4))
        b = a * (1 + 1e-9 * rng.standard_normal(a.shape))
        assert_matches_oracle(pairwise_divergence(a, b, (0.8, 0.2)), pair_totals(a, b, (0.8, 0.2)))


def masked_pair_divergence(a, b, weights, base):
    """The ordered pair path written out: cells taken attribute-major,
    ordered into (max, min), mixed w_0 * hi + w_1 * lo, both rows masked,
    then each alternative's q cells summed in attribute order."""
    hi, lo = np.maximum(np.ravel(a.T), np.ravel(b.T)), np.minimum(np.ravel(a.T), np.ravel(b.T))
    mix = weights[0] * hi
    mix += weights[1] * lo
    terms = np.zeros((2, mix.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, x, w in zip(terms, (hi, lo), weights):
            if w > 0:
                np.divide(x, mix, out=row)
                np.log(row, out=row)
                row *= x
                np.putmask(row, x == 0, 0.0)
                row *= w
    terms /= base.ln
    terms[0] += terms[1]
    return terms[0].reshape(a.shape[::-1]).sum(axis=0)


@st.composite
def expert_profiles(draw):
    """k (p, q) profiles: some experts have empty cells (shared or not), some
    tie another expert on a share of cells, some copy another outright."""
    k, p, q = draw(st.integers(2, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profiles = rng.uniform(0.0, 1.0, size=(k, p, q))
    for e in range(1, k):
        other = profiles[rng.integers(e)]
        kind = draw(st.sampled_from(["free", "empty", "shared-empty", "tie", "copy"]))
        cells = rng.random((p, q)) < 0.4
        if kind == "empty":
            profiles[e][cells] = 0.0
        elif kind == "shared-empty":
            other[cells] = profiles[e][cells] = 0.0
        elif kind == "tie":
            profiles[e][cells] = other[cells]
        elif kind == "copy":
            profiles[e] = other
    return list(profiles)


class TestPreparedPairPath:
    """Profiles prepared once per expert: the closed form at (1/2, 1/2) meets the
    oracle, and every other weight pair gives the bits of the written-out path."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        profiles=expert_profiles(),
        weights=st.sampled_from(ORDERED_PAIR_WEIGHTS),
        base=st.sampled_from(list(LogBase)),
    )
    def test_standalone_calls_equal_masked_reference(self, profiles, weights, base):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, j in zip(*np.triu_indices(len(profiles), 1)):
                for a, b in ((profiles[i], profiles[j]), (profiles[j], profiles[i])):
                    got = pairwise_divergence(a, b, weights, base)
                    assert np.array_equal(got, masked_pair_divergence(a, b, weights, base))

    @staticmethod
    def pair_table(k, p, q, copies, seed, weights, base):
        # copies repeat the first expert's matrix under new ids: identical
        # profiles, so some pairs are zero throughout
        rng = np.random.default_rng(seed)
        values = list(rng.uniform(1.0, 9.0, size=(k, p, q))) + [None] * copies
        values[k:] = [values[0]] * copies
        matrices = [DecisionMatrix(f"e{e}", v) for e, v in enumerate(values)]
        config = RunConfig(
            pair_weights=weights, log_base=base,
            uniform_when_degenerate=True, zero_average_policy="full-weight",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pipeline(matrices, config, with_ranking=False)
        profiles = result.wpbl_profiles
        return zip(result.pair_divergences.T, *np.triu_indices(len(profiles), 1)), profiles

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, 12),
        p=st.integers(2, 12),
        q=st.integers(2, 12),
        copies=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        weights=st.sampled_from(ORDERED_PAIR_WEIGHTS),
        base=st.sampled_from(["2", "e"]),
    )
    def test_run_pipeline_pair_table_equals_masked_reference(self, k, p, q, copies, seed, weights, base):
        try:
            table, profiles = self.pair_table(k, p, q, copies, seed, weights, base)
        except NegativeDivergenceError:
            reject()  # rounding on identical experts; the pair table is not returned
        for got, i, j in table:
            assert np.array_equal(got, masked_pair_divergence(profiles[i], profiles[j], weights, LogBase.parse(base)))

    # the oracle's 50-digit logs are slow, so the sizes stop at 8
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, 8),
        p=st.integers(2, 8),
        q=st.integers(2, 8),
        copies=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        base=st.sampled_from(["2", "e"]),
    )
    def test_run_pipeline_pair_table_matches_decimal_oracle(self, k, p, q, copies, seed, base):
        table, profiles = self.pair_table(k, p, q, copies, seed, (0.5, 0.5), base)
        for got, i, j in table:
            assert_matches_oracle(got, pair_totals(profiles[i], profiles[j], base=LogBase.parse(base)))
