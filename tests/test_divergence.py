"""Divergence measure tests with independent formula oracles."""

import math

import numpy as np
import pytest

from evidential_magdm.divergence import (
    LogBase,
    belief_js_divergence,
    entropy,
    generalized_belief_divergence,
    generalized_js_divergence,
    js_divergence,
    kl_divergence,
    weighted_belief_divergence,
)
from evidential_magdm.errors import ConfigError, DivergenceUndefinedError
from evidential_magdm.evidence import Bpa, FrameOfDiscernment, PseudoBpa

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


class TestBeliefJs:
    def test_identical_masses(self):
        m = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        assert belief_js_divergence(m, m, SINGLETONS) == pytest.approx(0.0)

    def test_disjoint_certain_masses(self):
        m1 = Bpa(AB, {"a": 1.0})
        m2 = Bpa(AB, {"b": 1.0})
        assert belief_js_divergence(m1, m2, SINGLETONS) == pytest.approx(1.0)

    def test_manual_profile_oracle(self):
        m1 = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        m2 = Bpa(AB, {"a": 0.5, "b": 0.5})
        # oracle: profiles (0.55, 0.45) and (0.5, 0.5), then plain JS
        expected = manual_js((0.55, 0.45), (0.5, 0.5))
        assert belief_js_divergence(m1, m2, SINGLETONS) == pytest.approx(expected, abs=1e-12)


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
            assert value == pytest.approx(belief_js_divergence(m1, m2, SINGLETONS), abs=1e-9)

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


class TestEntropy:
    def test_uniform(self):
        assert entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)

    def test_point_mass(self):
        assert entropy((1.0, 0.0)) == pytest.approx(0.0)
