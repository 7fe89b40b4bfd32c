"""Dempster-Shafer primitive tests.

Derived expectations are computed by independent oracles inside the
tests (direct mass sums for belief and plausibility) rather than by the
code under test.
"""

import numpy as np
import pytest

from evidential_magdm.errors import (
    DegenerateEvidenceError,
    FrameError,
    InvalidMassError,
)
from evidential_magdm.evidence import (
    Bpa,
    FrameOfDiscernment,
    belief,
    plausibility,
    wpbl,
)

AB = FrameOfDiscernment(("a", "b"))
ABC = FrameOfDiscernment(("a", "b", "c"))


def random_bpa(rng, frame, n_focal=None):
    """Random mass function over random nonempty subsets."""
    full = frame.full_set
    n_focal = n_focal or rng.integers(1, full + 1)
    subsets = rng.choice(np.arange(1, full + 1), size=min(n_focal, full), replace=False)
    masses = rng.dirichlet(np.ones(len(subsets)))
    return Bpa(frame, {int(s): float(m) for s, m in zip(subsets, masses)})


class TestFrame:
    def test_rejects_duplicates(self):
        with pytest.raises(FrameError):
            FrameOfDiscernment(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(FrameError):
            FrameOfDiscernment(())

    def test_subset_roundtrip(self):
        mask = ABC.subset(["a", "c"])
        assert ABC.labels(mask) == ("a", "c")

    def test_unknown_element(self):
        with pytest.raises(FrameError):
            ABC.subset(["z"])

    def test_order_is_stable(self):
        assert ABC.labels(ABC.full_set) == ("a", "b", "c")


class TestBpaValidation:
    def test_empty_set_mass_rejected(self):
        with pytest.raises(InvalidMassError):
            Bpa(AB, {0: 1.0})

    def test_sum_tolerance(self):
        with pytest.raises(InvalidMassError):
            Bpa(AB, {"a": 0.6, "b": 0.5})
        Bpa(AB, {"a": 0.6, "b": 0.4 + 5e-10})  # inside tolerance

    def test_mass_out_of_range(self):
        with pytest.raises(InvalidMassError):
            Bpa(AB, {"a": 1.5})


class TestBelief:
    def test_singleton(self):
        b = Bpa(AB, {"a": 0.6, ("a", "b"): 0.4})
        assert belief(b, ["a"]) == pytest.approx(0.6)

    def test_full_frame(self):
        b = Bpa(AB, {"a": 0.6, ("a", "b"): 0.4})
        assert belief(b, ["a", "b"]) == pytest.approx(1.0)

    def test_direct_sum(self):
        b = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        assert belief(b, ["b"]) == pytest.approx(0.2)

    def test_unknown_element_raises(self):
        b = Bpa(AB, {"a": 1.0})
        with pytest.raises(FrameError):
            belief(b, ["q"])


class TestPlausibility:
    def test_overlapping_focal_sets(self):
        b = Bpa(AB, {"a": 0.6, ("a", "b"): 0.4})
        assert plausibility(b, ["a"]) == pytest.approx(1.0)

    def test_partial(self):
        b = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        assert plausibility(b, ["b"]) == pytest.approx(0.7)

    def test_frame_always_plausible(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = random_bpa(rng, ABC)
            assert plausibility(b, ABC.labels(ABC.full_set)) == pytest.approx(1.0)


class TestWpbl:
    def test_certain_evidence(self):
        b = Bpa(AB, {"a": 1.0})
        dist = wpbl(b, [["a"], ["b"]])
        np.testing.assert_allclose(dist.values, [1.0, 0.0])

    def test_vacuous_evidence(self):
        b = Bpa(AB, {("a", "b"): 1.0})
        dist = wpbl(b, [["a"], ["b"]])
        np.testing.assert_allclose(dist.values, [0.5, 0.5])

    def test_against_direct_evaluation(self):
        b = Bpa(AB, {"a": 0.3, "b": 0.2, ("a", "b"): 0.5})
        # oracle: Bel(a)=0.3, Pl(a)=0.8, Bel(b)=0.2, Pl(b)=0.7, total 2.0
        dist = wpbl(b, [["a"], ["b"]])
        np.testing.assert_allclose(dist.values, [1.1 / 2.0, 0.9 / 2.0])

    def test_zero_denominator(self):
        b = Bpa(ABC, {"a": 1.0})
        with pytest.raises(DegenerateEvidenceError):
            wpbl(b, [["b"], ["c"]])

    def test_empty_propositions(self):
        with pytest.raises(DegenerateEvidenceError):
            wpbl(Bpa(AB, {"a": 1.0}), [])


class TestRandomizedInvariants:
    def test_belief_below_plausibility(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            frame = ABC if rng.random() < 0.5 else AB
            b = random_bpa(rng, frame)
            mask = int(rng.integers(1, frame.full_set + 1))
            prop = frame.labels(mask)
            bel, pl = belief(b, prop), plausibility(b, prop)
            assert 0.0 <= bel <= pl + 1e-12
            assert pl <= 1.0 + 1e-9

    def test_plausibility_complement_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            b = random_bpa(rng, ABC)
            mask = int(rng.integers(1, ABC.full_set + 1))
            pl = plausibility(b, ABC.labels(mask))
            bel_comp = belief(b, ABC.labels(ABC.full_set & ~mask))
            assert pl + bel_comp == pytest.approx(1.0, abs=1e-9)

    def test_wpbl_sums_to_one(self):
        rng = np.random.default_rng(9)
        singletons = [["a"], ["b"], ["c"]]
        for _ in range(200):
            b = random_bpa(rng, ABC)
            assert wpbl(b, singletons).values.sum() == pytest.approx(1.0, abs=1e-9)
