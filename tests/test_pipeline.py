"""Pipeline stage tests and whole-pipeline invariants."""

import gc
import math
import operator
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decimal_oracle import ordered_weighted_sums, relative_errors
from groups import group_of
from perfbench_modules import load_tracing
from evidential_magdm import pipeline, recruitment as ref
from evidential_magdm.config import RunConfig
from evidential_magdm.errors import (
    ConfigError,
    DegenerateCellError,
    DegenerateDomainError,
    DegenerateRankingError,
    MagdmError,
    NegativeDivergenceError,
    ZeroDivergenceError,
)
from evidential_magdm.linguistic import BpaTensor, DecisionGroup, DecisionMatrix, bpa_tensor, membership_matrix
from evidential_magdm.pipeline import (
    OwaWeights,
    _descending_network,
    _expert_pairs,
    divergence_matrix,
    expert_stage,
    expert_weights,
    expert_wpbl,
    fuse,
    ordered_weighted_belief,
    ordered_weighted_plausibility,
    owa_weights,
    pairwise_divergence,
    rank,
    run_pipeline,
    weighting_stage,
)
from evidential_magdm.report import dump_json, pipeline_report


def fixed_order_belief(masses, weights):
    """Reference: masses sorted descending, then w_1·m_1 + w_2·m_2 + ... in term order."""
    ordered = -np.sort(-np.ascontiguousarray(masses), axis=2)
    total = ordered[..., 0] * weights[0]
    for f in range(1, weights.size):
        total = total + ordered[..., f] * weights[f]
    return total


@st.composite
def belief_groups(draw):
    """The mass tensor of k random experts with the OWA weights of a drawn scheme."""
    k, p, q = draw(st.integers(1, 6)), draw(st.integers(2, 30)), draw(st.integers(1, 6))
    terms = draw(st.sampled_from([5, 7, 9]))
    scheme = draw(st.sampled_from(["uniform", "linear-descending", "orness"]))
    orness = draw(st.sampled_from([0.2, 0.7, 0.95])) if scheme == "orness" else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [DecisionMatrix(f"e{e}", rng.uniform(-5.0, 5.0, size=(p, q))) for e in range(k)]
    return bpa_tensor(membership_matrix(group_of(matrices), terms)), owa_weights(terms, scheme, orness)


@st.composite
def tied_mass_groups(draw):
    """Masses of k experts at 5-9 terms from small-integer scores, so cells hold tied
    masses, with a two-valued first column, whose interior terms are zero columns."""
    k, p, q = draw(st.integers(1, 4)), draw(st.integers(2, 12)), draw(st.integers(1, 4))
    terms = draw(st.integers(5, 9))
    scheme = draw(st.sampled_from(["uniform", "linear-descending", "orness"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 4, size=(k, p, q)).astype(float)
    values[:, :, 0] = np.arange(p) % 2
    group = DecisionGroup(tuple(f"e{e}" for e in range(k)), values)
    masses = bpa_tensor(membership_matrix(group, terms, uniform_when_degenerate=True))
    return masses, owa_weights(terms, scheme, 0.7 if scheme == "orness" else None)


@st.composite
def expert_groups(draw):
    """k experts' (p, q) matrices with plain, flat and two-valued columns.

    Two-valued columns leave every interior term without mass (zero-mass
    BPA columns); flat ones need ``uniform_when_degenerate``.
    """
    k, p, q = draw(st.integers(2, 16)), draw(st.integers(2, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-50.0, 50.0, size=(k, p, q))
    kinds = rng.integers(0, 3, size=(k, q))
    for e, j in zip(*np.nonzero(kinds == 1)):
        values[e, :, j] = values[e, 0, j]
    for e, j in zip(*np.nonzero(kinds == 2)):
        values[e, :, j] = np.where(rng.random(p) < 0.5, -3.0, 4.5)
    matrices = [DecisionMatrix(f"e{e}", values[e]) for e in range(k)]
    scheme = draw(st.sampled_from(["uniform", "linear-descending", "orness"]))
    orness = draw(st.sampled_from([0.2, 0.7, 0.95])) if scheme == "orness" else 0.95
    config = RunConfig(
        terms=draw(st.sampled_from([5, 7, 9])), owa_scheme=scheme, orness=orness,
        uniform_when_degenerate=True, zero_average_policy="full-weight",
    )
    return matrices, config


def pipeline_outcome(matrices, config):
    """The run without the ranking, or its error as (type, message)."""
    try:
        return run_pipeline(matrices, config, with_ranking=False)
    except MagdmError as exc:
        return type(exc), str(exc)


def random_matrices(rng, experts=3, p=6, q=3):
    return [
        DecisionMatrix(f"e{k}", rng.uniform(10, 99, size=(p, q)))
        for k in range(experts)
    ]


class TestOwaWeights:
    def test_uniform(self):
        np.testing.assert_allclose(owa_weights(5, "uniform").values, 0.2)

    def test_linear_descending_closed_form(self):
        np.testing.assert_allclose(
            owa_weights(4, "linear-descending").values, [0.4, 0.3, 0.2, 0.1]
        )

    def test_orness_half_is_uniform(self):
        w = owa_weights(5, "orness", orness=0.5)
        np.testing.assert_allclose(w.values, 0.2, atol=1e-9)

    def test_orness_roundtrip(self):
        for theta in (0.6, 0.7, 0.8, 0.95, 0.3):
            w = owa_weights(5, "orness", orness=theta)
            assert w.orness() == pytest.approx(theta, abs=1e-9)

    def test_orness_grid_roundtrip_and_monotone(self):
        grid = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
        for length in range(3, 21):
            for theta in grid:
                w = owa_weights(length, "orness", orness=theta)
                assert w.orness() == pytest.approx(theta, abs=1e-12)
                assert w.values.sum() == pytest.approx(1.0, abs=1e-12)
                # above 1/2 the weights fall with rank, below 1/2 they rise
                steps = np.diff(w.values)
                assert np.all(steps < 0) if theta > 0.5 else np.all(steps > 0)

    def test_orness_long_vectors_stay_finite(self):
        # u * length passes exp's range here; the solve must shift the logits
        for length in (25, 40, 60):
            for theta in (0.02, 0.98):
                w = owa_weights(length, "orness", orness=theta)
                assert np.all(np.isfinite(w.values))
                assert w.orness() == pytest.approx(theta, abs=1e-12)

    def test_orness_out_of_range(self):
        with pytest.raises(ConfigError):
            owa_weights(5, "orness", orness=1.0)

    def test_descending_for_high_orness(self):
        w = owa_weights(5, "orness", orness=0.9).values
        assert np.all(np.diff(w) < 0)

    def test_single_weight(self):
        np.testing.assert_allclose(owa_weights(1, "orness", orness=0.7).values, [1.0])

    def test_repeat_calls_share_one_read_only_solve(self):
        first = owa_weights(7, "orness", orness=0.65)
        again = owa_weights(7, "orness", orness=0.65)
        assert np.array_equal(first.values, again.values) and first.scheme == again.scheme
        with pytest.raises(ValueError):
            first.values[0] = 0.5
        assert not np.array_equal(owa_weights(7, "orness", orness=0.35).values, first.values)

    def test_values_are_a_private_copy(self):
        raw = np.array([0.5, 0.5])
        w = OwaWeights(raw, "given")
        raw[0] = 1.0
        assert w.values.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="^ordered weights must be finite, nonnegative and sum to 1$"):
            OwaWeights(np.array([bad, 1.0]), "given")


class TestOrderedWeightedBelief:
    def tensor(self):
        return bpa_tensor(membership_matrix(group_of(ref.decision_matrices()[:1])))

    def test_uniform_weights_give_row_mean(self):
        tensor = self.tensor()
        bel = ordered_weighted_belief(tensor, owa_weights(5, "uniform"))[0]
        np.testing.assert_allclose(bel, tensor.masses[0].mean(axis=2), atol=1e-12)

    def test_top_weight_gives_row_max(self):
        tensor = self.tensor()
        from evidential_magdm.pipeline import OwaWeights

        top = OwaWeights(np.array([1.0, 0, 0, 0, 0]), "top")
        bel = ordered_weighted_belief(tensor, top)[0]
        np.testing.assert_allclose(bel, tensor.masses[0].max(axis=2), atol=1e-12)

    def test_hand_dot_product_oracle(self):
        # published first-candidate panel masses, sorted descending and
        # dotted with (0.4, 0.3, 0.2, 0.1, 0) by hand
        row = [0.0351, 0.0408, 0.0513, 0.0952, 0.0759]
        expected = 0.4 * 0.0952 + 0.3 * 0.0759 + 0.2 * 0.0513 + 0.1 * 0.0408
        assert expected == pytest.approx(0.07519)
        tensor = self.tensor()
        from evidential_magdm.pipeline import OwaWeights

        w = OwaWeights(np.array([0.4, 0.3, 0.2, 0.1, 0.0]), "linear-descending")
        bel = ordered_weighted_belief(tensor, w)[0]
        sorted_row = sorted(row, reverse=True)
        oracle = sum(wf * v for wf, v in zip(w.values, sorted_row))
        assert bel[0, 0] == pytest.approx(oracle, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ordered_weighted_belief(self.tensor(), owa_weights(4, "uniform"))

    @pytest.mark.parametrize("length", range(1, 13))
    def test_network_sorts_every_zero_one_sequence(self, length):
        # 0-1 principle: a comparator network that sorts every 0/1 input sorts all inputs
        network = _descending_network(length)
        assert all(0 <= a < b < length for a, b in network)
        for code in range(2 ** length):
            v = [(code >> i) & 1 for i in range(length)]
            for a, b in network:
                v[a], v[b] = max(v[a], v[b]), min(v[a], v[b])
            assert v == sorted(v, reverse=True)

    def test_many_experts_sort_in_chunks(self):
        # 40 experts of 30 x 20 cells: run_pipeline takes 2 chunks at the
        # default _SORT_CELLS and 14 (13 of 3 experts and 1 of 1) patched
        rng = np.random.default_rng(8)
        matrices = [DecisionMatrix(f"e{e}", rng.uniform(0, 9, size=(30, 20))) for e in range(40)]
        config = RunConfig(terms=7, owa_scheme="linear-descending")
        assert pipeline._SORT_CELLS // (30 * 20) == 27
        unpatched = result_arrays(run_pipeline(matrices, config))
        with mock.patch.object(pipeline, "_SORT_CELLS", 3 * 30 * 20), mock.patch.object(
            pipeline, "ordered_weighted_belief", wraps=ordered_weighted_belief,
        ) as belief:
            result = run_pipeline(matrices, config)
        assert [len(call.args[0].masses) for call in belief.call_args_list] == [3] * 13 + [1]
        w = result.owa.values
        for masses, bel in zip(result.bpa_tensors.masses, result.beliefs):
            assert np.array_equal(bel, fixed_order_belief(masses, w))
        assert ordered_weighted_belief(result.bpa_tensors, result.owa).tobytes() == result.beliefs.tobytes()
        split = result_arrays(result)
        assert split.keys() == unpatched.keys()
        for name, array in unpatched.items():
            assert same_bits(split[name], array), name

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(group=belief_groups())
    def test_sum_matches_decimal_oracle(self, group):
        tensors, owa = group
        for masses, bel in zip(tensors.masses, ordered_weighted_belief(tensors, owa)):
            expected = ordered_weighted_sums(masses, owa.values)
            assert max(relative_errors(bel.ravel(), expected)) <= 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(group=expert_groups(), data=st.data())
    def test_chunking_does_not_change_a_bit(self, group, data):
        # run_pipeline takes the experts through memberships, masses and belief
        # in chunks; any chunk size gives the one-chunk run's bits, or its error
        matrices, config = group
        k, (p, q) = len(matrices), matrices[0].values.shape
        assert k * p * q <= pipeline._SORT_CELLS
        per_chunk = data.draw(st.integers(1, k - 1))
        cells = per_chunk * p * q + data.draw(st.integers(0, p * q - 1))
        whole = pipeline_outcome(matrices, config)
        with mock.patch.object(pipeline, "_SORT_CELLS", cells), mock.patch.object(
            pipeline, "membership_matrix", wraps=membership_matrix,
        ) as membership:
            split = pipeline_outcome(matrices, config)
        if isinstance(whole, tuple):
            assert split == whole
            return
        assert membership.call_count == -(-k // per_chunk)
        whole, split = result_arrays(whole), result_arrays(split)
        assert split.keys() == whole.keys()
        for name, array in whole.items():
            assert same_bits(split[name], array), name

    def test_flat_column_in_a_later_chunk_names_its_expert(self):
        values = np.random.default_rng(23).uniform(1.0, 99.0, size=(8, 5, 3))
        values[5, :, 2] = 7.0
        values[7, :, 0] = 7.0
        group = DecisionGroup(tuple(f"e{e}" for e in range(8)), values, attribute_labels=("a", "b", "c"))
        message = "^attribute 'c' of expert 'e5' has a single observed value or a range that cannot be split into 4 segments$"
        with pytest.raises(DegenerateDomainError, match=message):
            run_pipeline(group)
        with mock.patch.object(pipeline, "_SORT_CELLS", 2 * 5 * 3), mock.patch.object(
            pipeline, "membership_matrix", wraps=membership_matrix,
        ) as membership:
            with pytest.raises(DegenerateDomainError, match=message):
                run_pipeline(group)
        assert [call.args[0].expert_ids for call in membership.call_args_list] == [
            ("e0", "e1"), ("e2", "e3"), ("e4", "e5"),
        ]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(group=belief_groups(), data=st.data())
    def test_sub_stack_beliefs_are_the_group_rows(self, group, data):
        # a subset or reordering of the experts is read through a copied slab
        tensors, owa = group
        k = len(tensors.masses)
        keep = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
        whole = ordered_weighted_belief(tensors, owa)
        sub = ordered_weighted_belief(BpaTensor(tensors.masses[keep]), owa)
        assert sub.tobytes() == whole[keep].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(group=tied_mass_groups())
    def test_read_only_masses_give_the_same_bits_and_stay_unchanged(self, group):
        # the sort never writes into the masses' slab: a read-only view of it
        # sorts as the writable stack does, and neither call changes a bit
        tensors, owa = group
        assert tensors.zero_columns
        before = tensors.masses.tobytes()
        frozen = tensors.masses.view()
        frozen.setflags(write=False)
        got = ordered_weighted_belief(BpaTensor(frozen), owa)
        assert got.tobytes() == ordered_weighted_belief(tensors, owa).tobytes()
        assert tensors.masses.tobytes() == frozen.tobytes() == before


class TestGroupPass:
    """The per-expert stages run once on the whole group; each expert's part
    must not depend on the rest of the group or its order."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(group=expert_groups())
    def test_group_equals_each_expert_alone(self, group):
        matrices, config = group
        owa = owa_weights(config.terms, config.owa_scheme, config.orness)
        memberships = membership_matrix(group_of(matrices), config.terms, uniform_when_degenerate=True)
        tensors = bpa_tensor(memberships)
        beliefs = ordered_weighted_belief(tensors, owa)
        for e, m in enumerate(matrices):
            alone = membership_matrix(group_of([m]), config.terms, uniform_when_degenerate=True)
            alone_t = bpa_tensor(alone)
            [alone_bel] = ordered_weighted_belief(alone_t, owa)
            assert np.array_equal(memberships.degrees[e], alone.degrees[0])
            assert memberships.partitions(e) == alone.partitions(0)
            assert np.array_equal(tensors.masses[e], alone_t.masses[0])
            assert [c[1:] for c in tensors.zero_columns if c[0] == e] == [c[1:] for c in alone_t.zero_columns]
            assert np.array_equal(beliefs[e], alone_bel)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(group=expert_groups(), data=st.data())
    def test_permuting_experts_permutes_outputs(self, group, data):
        matrices, config = group
        order = data.draw(st.permutations(range(len(matrices))))

        def outcome(ms):
            try:
                return run_pipeline(ms, config, with_ranking=False)
            except MagdmError as exc:
                return type(exc)

        base, permuted = outcome(matrices), outcome([matrices[i] for i in order])
        if isinstance(base, type) or isinstance(permuted, type):
            assert base == permuted
            return
        for n, i in enumerate(order):
            assert np.array_equal(permuted.memberships.degrees[n], base.memberships.degrees[i])
            assert np.array_equal(permuted.bpa_tensors.masses[n], base.bpa_tensors.masses[i])
            assert np.array_equal(permuted.beliefs[n], base.beliefs[i])
        np.testing.assert_allclose(permuted.weights.weights, base.weights.weights[list(order)], rtol=0, atol=1e-12)

    def test_without_ranking_nothing_is_normalised(self):
        result = run_pipeline(random_matrices(np.random.default_rng(4)), with_ranking=False)
        assert result.normalized is None and result.ranking is None


class TestExpertStageLayout:
    """Beliefs, plausibilities and profiles are (k, p, q) stacks, each the
    transpose of a C-contiguous (k, q, p) block; the pair loop reads rows
    of a (k, p*q) view of the profiles."""

    @pytest.mark.parametrize("axis", ["attributes", "alternatives"])
    @pytest.mark.parametrize("k, p, q", [(3, 240, 8), (64, 30, 4), (2, 17, 1)])
    def test_per_expert_arrays_are_contiguous_transposes(self, k, p, q, axis):
        rng = np.random.default_rng(k)
        matrices = [DecisionMatrix(f"e{e}", rng.normal(size=(p, q))) for e in range(k)]
        config = RunConfig(wpbl_axis=axis, zero_average_policy="full-weight")
        if q == 1 and axis == "attributes":  # every profile is [1]: refused under either policy
            with pytest.raises(ZeroDivergenceError, match=r"\(wpbl_axis: alternatives\)$"):
                run_pipeline(matrices, config, with_ranking=False)
            return
        with mock.patch.object(pipeline, "pairwise_divergence", wraps=pipeline.pairwise_divergence) as pair:
            result = run_pipeline(matrices, config, with_ranking=False)
        profiles = result.wpbl_profiles
        for stack in (result.beliefs, result.plausibilities, profiles):
            assert stack.shape == (k, p, q) and stack.transpose(0, 2, 1).flags.c_contiguous
        assert pair.call_count == k * (k - 1) // 2
        for (first, second, *_), kwargs in pair.call_args_list:
            for profile, (flat, lo, hi) in zip((first, second), kwargs["operands"]):
                # a contiguous row of the (k, p*q) view, not a copy
                assert flat.flags.c_contiguous and np.shares_memory(flat, profile)
                assert np.array_equal(flat, np.concatenate(list(profile.T)))  # attribute-major
                assert (lo, hi) == (profile.min(), profile.max())

    @pytest.mark.parametrize("k, p, q", [(3, 240, 8), (64, 30, 4), (4, 17, 2), (2, 1000, 1)])
    def test_masses_sum_to_one_within_4_ulp(self, k, p, q):
        rng = np.random.default_rng(p)
        matrices = [DecisionMatrix(f"e{e}", rng.normal(size=(p, q))) for e in range(k)]
        for masses in bpa_tensor(membership_matrix(group_of(matrices))).masses:
            columns = masses.reshape(p, -1).T
            assert max(abs(math.fsum(c) - 1.0) for c in columns) <= 4 * np.finfo(float).eps

    def test_group_masses_are_sorted_without_a_copy(self):
        # the first compare-exchange step reads two term planes of the masses'
        # slab: a view for the group or a slice of it, a copy for a reordering
        rng = np.random.default_rng(3)
        tensors = bpa_tensor(membership_matrix(group_of([DecisionMatrix(f"e{e}", rng.normal(size=(6, 2))) for e in range(4)])))
        for masses, in_place in ((tensors.masses, True), (tensors.masses[1:3], True), (tensors.masses[[2, 1]], False)):
            with mock.patch.object(np, "maximum", wraps=np.maximum) as maximum:
                ordered_weighted_belief(BpaTensor(masses), owa_weights(5, "uniform"))
            first, second = maximum.call_args_list[0].args[:2]
            assert np.shares_memory(first, masses) == np.shares_memory(second, masses) == in_place


class TestOrderedWeightedPlausibility:
    def test_already_normalized(self):
        bels = [np.full((1, 1), v) for v in (0.2, 0.3, 0.5)]
        pls = ordered_weighted_plausibility(bels)
        np.testing.assert_allclose([p[0, 0] for p in pls], [0.2, 0.3, 0.5])

    def test_two_expert_symmetry(self):
        bels = [np.full((2, 1), 0.1), np.full((2, 1), 0.1)]
        pls = ordered_weighted_plausibility(bels)
        np.testing.assert_allclose([p[0, 0] for p in pls], [0.5, 0.5])

    def test_divide_by_sum_oracle(self):
        bels = [np.full((1, 1), v) for v in (0.06, 0.09, 0.12, 0.03)]
        pls = ordered_weighted_plausibility(bels)
        np.testing.assert_allclose([p[0, 0] for p in pls], [0.2, 0.3, 0.4, 0.1])

    def test_zero_cell_raises(self):
        bels = [np.array([[0.0, 0.2]]* 2), np.array([[0.0, 0.3]] * 2)]
        with pytest.raises(DegenerateCellError):
            ordered_weighted_plausibility(bels)

    def test_cross_expert_sum_is_one(self):
        rng = np.random.default_rng(0)
        bels = [rng.uniform(0.01, 1, size=(5, 3)) for _ in range(4)]
        pls = ordered_weighted_plausibility(bels)
        np.testing.assert_allclose(sum(pls), 1.0, atol=1e-9)


@st.composite
def belief_stacks(draw):
    """A group's (k, p, q) belief stack, its groups up to k = 64 experts."""
    k, p, q = draw(st.integers(2, 64)), draw(st.integers(2, 40)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [DecisionMatrix(f"e{e}", rng.uniform(-5.0, 5.0, size=(p, q))) for e in range(k)]
    return ordered_weighted_belief(bpa_tensor(membership_matrix(group_of(matrices))), owa_weights(5, "orness", 0.95))


class TestStackedWeightingStage:
    """Plausibility and profiles on the whole stack equal per-expert 2-d calls, bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(beliefs=belief_stacks(), axis=st.sampled_from(["attributes", "alternatives"]))
    @example(
        # 64 experts of 40 x 8 cells fill two sort chunks
        beliefs=ordered_weighted_belief(
            bpa_tensor(membership_matrix(group_of([
                DecisionMatrix(f"e{e}", np.random.default_rng(e).uniform(0, 9, size=(40, 8))) for e in range(64)
            ]))),
            owa_weights(5, "orness", 0.95),
        ),
        axis="alternatives",
    )
    def test_stack_equals_per_expert_calls(self, beliefs, axis):
        totals = beliefs[0] + beliefs[1]
        for b in beliefs[2:]:
            totals = totals + b  # experts added in order
        plausibilities = ordered_weighted_plausibility(beliefs)
        profiles = expert_wpbl(beliefs, plausibilities, axis=axis)
        assert plausibilities.tobytes() == np.array([b / totals for b in beliefs]).tobytes()
        assert ordered_weighted_plausibility(list(beliefs)).tobytes() == plausibilities.tobytes()
        alone = [expert_wpbl(b, pl, axis=axis) for b, pl in zip(beliefs, plausibilities)]
        assert profiles.tobytes() == np.array(alone).tobytes()

    def test_zero_mass_error_names_the_expert(self):
        bel = np.full((3, 2, 2), 0.2)
        bel[1, 0] = 0.0
        with pytest.raises(DegenerateCellError, match="expert 2: alternative 1 has zero"):
            expert_wpbl(bel, bel, axis="attributes")
        with pytest.raises(DegenerateCellError, match="^alternative 1 has zero"):
            expert_wpbl(bel[1], bel[1], axis="attributes")


class TestExpertWpbl:
    def test_equal_cells_split_evenly(self):
        bel = np.array([[0.1], [0.1]])
        pl = np.array([[0.4], [0.4]])
        profile = expert_wpbl(bel, pl, axis="alternatives")
        np.testing.assert_allclose(profile[:, 0], [0.5, 0.5])

    def test_pre_normalized_column(self):
        bel = np.array([[0.15], [0.05], [0.3]])
        pl = np.array([[0.15], [0.05], [0.3]])
        profile = expert_wpbl(bel, pl, axis="alternatives")
        np.testing.assert_allclose(profile[:, 0], [0.3, 0.1, 0.6])

    def test_attribute_axis_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        bel, pl = rng.uniform(0.01, 1, (17, 2)), rng.uniform(0.01, 1, (17, 2))
        profile = expert_wpbl(bel, pl, axis="attributes")
        np.testing.assert_allclose(profile.sum(axis=1), 1.0, atol=1e-9)

    def test_alternative_axis_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        bel, pl = rng.uniform(0.01, 1, (17, 2)), rng.uniform(0.01, 1, (17, 2))
        profile = expert_wpbl(bel, pl, axis="alternatives")
        np.testing.assert_allclose(profile.sum(axis=0), 1.0, atol=1e-9)


class TestPairwiseDivergence:
    def test_identical_experts_are_zero(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, size=(6, 2))
        w = w / w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(pairwise_divergence(w, w), 0.0, atol=1e-15)

    def test_against_manual_summand_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.dirichlet(np.ones(2), size=5)
        b = rng.dirichlet(np.ones(2), size=5)
        expected = np.zeros(5)
        for i in range(5):
            for j in range(2):
                p, q = a[i, j], b[i, j]
                mix = (p + q) / 2
                term = 0.0
                if p > 0:
                    term += 0.5 * p * math.log2(p / mix)
                if q > 0:
                    term += 0.5 * q * math.log2(q / mix)
                expected[i] += term
        np.testing.assert_allclose(pairwise_divergence(a, b), expected, atol=1e-12)

    def test_single_disagreement_dominates(self):
        # experts agree except on one alternative's balance; that row's
        # divergence must be strictly largest
        base = np.full((6, 2), 0.5)
        other = base.copy()
        other[3] = [0.9, 0.1]
        column = pairwise_divergence(base, other)
        assert np.argmax(column) == 3
        assert column[3] > column.max(initial=0, where=np.arange(6) != 3) * 10

    def test_reference_candidate_12_pair(self):
        result = run_pipeline(ref.decision_matrices(), RunConfig())
        column = result.pair_divergences[:, result.pair_ids.index(("u1", "u2"))]
        assert column[11] == pytest.approx(0.0093, abs=1e-3)

    @pytest.mark.parametrize("pair_weights", [(0.0, 1.0), (1.0, 0.0)])
    def test_single_order_statistic_weights_on_zero_cells(self, pair_weights):
        # all weight on one order statistic makes the mixture equal to it,
        # so every alternative's divergence is 0; with (0, 1) a zero cell
        # puts log(v / 0) in the zero-weight row, which must be masked
        # without a numpy warning
        a = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [0.5, 0.5], [0.3, 0.7], [0.0, 1.0], [0.0, 1.0]])
        column = pairwise_divergence(a, b, pair_weights)
        assert np.all(np.isfinite(column)) and np.all(column >= 0)
        assert np.array_equal(column, np.zeros(5))

    def test_pair_weights_affect_value(self):
        rng = np.random.default_rng(5)
        a = rng.dirichlet(np.ones(2), size=4)
        b = rng.dirichlet(np.ones(2), size=4)
        even = pairwise_divergence(a, b, (0.5, 0.5))
        skew = pairwise_divergence(a, b, (0.8, 0.2))
        assert not np.allclose(even, skew)


class TestDivergenceMatrix:
    def test_two_expert_average(self):
        out = divergence_matrix(np.array([[0.001, 0.003]]), 2)
        np.testing.assert_allclose(out, [[0, 0.002], [0.002, 0]])

    def test_published_averages_reproduce_published_matrix(self):
        # EXPERT_PAIRS lists the pairs in triu_indices order
        k = len(ref.EXPERT_IDS)
        order = [(ref.EXPERT_IDS[i], ref.EXPERT_IDS[j]) for i, j in zip(*np.triu_indices(k, 1))]
        assert list(ref.EXPERT_PAIRS) == order
        table = np.repeat(np.asarray(ref.PUBLISHED_PAIR_AVERAGES)[:, None], 17, axis=1)
        out = divergence_matrix(table, k)
        np.testing.assert_allclose(out, ref.PUBLISHED_DIVERGENCE_MATRIX, atol=1e-4)

    def test_all_zero(self):
        np.testing.assert_allclose(divergence_matrix(np.zeros((3, 3)), 3), 0.0)

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="one row per pair of 3 experts"):
            divergence_matrix(np.zeros((1, 2)), 3)

    def test_extra_pair_rejected(self):
        with pytest.raises(ValueError, match="one row per pair of 3 experts"):
            divergence_matrix(np.zeros((4, 2)), 3)

    def test_equals_per_column_reductions_bit_for_bit(self):
        # a pair's column of pair_divergences is its row of the table
        rng = np.random.default_rng(12)
        for k, p in ((2, 3), (3, 17), (5, 240), (9, 1000), (24, 50)):
            table = rng.exponential(1e-3, size=(k * (k - 1) // 2, p))
            expected = np.zeros((k, k))
            for (i, j), row in zip(zip(*np.triu_indices(k, 1)), table):
                expected[i, j] = expected[j, i] = row.mean()
            assert np.array_equal(divergence_matrix(table, k), expected)

    def test_report_aggregate_is_the_matrix_upper_triangle(self):
        config = RunConfig(pair_weights=(0.8, 0.2))
        result = run_pipeline(ref.decision_matrices(), config)
        aggregate = pipeline_report(result)["pairwise_divergence"]["aggregate"]
        k = len(result.expert_ids)
        assert aggregate == result.dmm[np.triu_indices(k, 1)].tolist()

    def test_pair_columns_follow_triu_order(self):
        rng = np.random.default_rng(14)
        result = run_pipeline(random_matrices(rng, experts=5, p=7), RunConfig())
        rows, cols = np.triu_indices(5, 1)
        assert result.pair_ids == tuple(
            (result.expert_ids[i], result.expert_ids[j]) for i, j in zip(rows, cols)
        )
        for n, (i, j) in enumerate(zip(rows, cols)):
            expected = pairwise_divergence(result.wpbl_profiles[i], result.wpbl_profiles[j])
            assert np.array_equal(result.pair_divergences[:, n], expected)


class TestExpertPairs:
    def test_cached_pairs_match_triu_indices_and_are_read_only(self):
        for k in range(2, 71):
            rows, cols, pairs = _expert_pairs(k)
            want_rows, want_cols = np.triu_indices(k, 1)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert pairs == tuple(zip(want_rows.tolist(), want_cols.tolist()))
            for a in (rows, cols):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1
            assert _expert_pairs(k)[0] is rows

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_pair_ids_run_row_major_over_the_upper_triangle(self, k):
        rng = np.random.default_rng(k)
        result = run_pipeline(random_matrices(rng, experts=k), RunConfig())
        ids = result.expert_ids
        assert result.pair_ids == tuple((ids[i], ids[j]) for i in range(k) for j in range(i + 1, k))


class TestExpertWeights:
    def test_published_matrix_chain(self):
        ew = expert_weights(ref.PUBLISHED_DIVERGENCE_MATRIX, ref.EXPERT_IDS)
        # row sums / 4 of the published matrix
        np.testing.assert_allclose(
            ew.averages, [0.001775, 0.00145, 0.001, 0.001425], atol=1e-12
        )
        np.testing.assert_allclose(ew.averages, ref.PUBLISHED_AVERAGE_DIVERGENCES, atol=1e-4)
        np.testing.assert_allclose(ew.supports / ref.PUBLISHED_SUPPORTS, 1.0, atol=0.04)
        np.testing.assert_allclose(ew.weights, ref.PUBLISHED_EXPERT_WEIGHTS, atol=0.01)
        assert ew.ranking() == ref.PUBLISHED_EXPERT_RANKING

    def test_two_expert_symmetry(self):
        dmm = np.array([[0.0, 0.004], [0.004, 0.0]])
        ew = expert_weights(dmm, ("a", "b"))
        np.testing.assert_allclose(ew.weights, [0.5, 0.5])

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.001, 0.01, size=(4, 4))
        dmm = (raw + raw.T) / 2
        np.fill_diagonal(dmm, 0.0)
        base = expert_weights(dmm, ("a", "b", "c", "d"))
        scaled = expert_weights(dmm * 37.0, ("a", "b", "c", "d"))
        np.testing.assert_allclose(base.weights, scaled.weights, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, 32),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1e-3, 1.0]),
        c=st.sampled_from([1 / math.log(2), math.log(2), 17.0, 1 / 200]),
    )
    def test_rescaled_matrix_keeps_weights_and_ranking(self, k, seed, scale, c):
        # a key that only rescales every divergence (a log base, a mean in place
        # of a sum) changes no weight and no ranking: w is proportional to 1/avg
        rng = np.random.default_rng(seed)
        raw = rng.exponential(scale, size=(k, k)) * (rng.random((k, k)) > 0.2)
        dmm = np.triu(raw, 1) + np.triu(raw, 1).T
        assume(np.all(dmm.sum(axis=1) > 0))
        ids = tuple(f"e{e}" for e in range(k))
        base = expert_weights(dmm, ids)
        scaled = expert_weights(c * dmm, ids)
        assert np.abs(scaled.weights - base.weights).max() <= 1e-15
        # the ranking holds across every gap wider than that
        ranked, again = base.ranking(), scaled.ranking()
        sorted_weights = np.sort(base.weights)[::-1]
        for cut in np.flatnonzero(-np.diff(sorted_weights) > 1e-15) + 1:
            assert set(ranked[:cut]) == set(again[:cut])

    def test_zero_average_policies(self):
        dmm = np.zeros((2, 2))
        with pytest.raises(ZeroDivergenceError):
            expert_weights(dmm, ("a", "b"))
        ew = expert_weights(dmm, ("a", "b"), zero_average_policy="full-weight")
        np.testing.assert_allclose(ew.weights, [0.5, 0.5])
        assert ew.zero_average_experts == ("a", "b")

    @pytest.mark.parametrize("policy", ["error", "full-weight"])
    def test_negative_average_is_refused(self, policy):
        # rounding gives near-identical experts cells like these: c's average is
        # negative and b's is zero, and normalising would give c a negative weight
        dmm = np.array([
            [0.0, 2e-17, 1e-17],
            [2e-17, 0.0, -2e-17],
            [1e-17, -2e-17, 0.0],
        ])
        with pytest.raises(NegativeDivergenceError, match=r"experts \('c',\) have negative average"):
            expert_weights(dmm, ("a", "b", "c"), zero_average_policy=policy)


class TestFuse:
    def test_identical_matrices(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(fuse(np.stack([m, m]), np.array([0.3, 0.7])), m)

    def test_one_hot_selects_expert(self):
        stack = np.array([[[1.0], [2.0]], [[5.0], [6.0]]])
        np.testing.assert_allclose(fuse(stack, np.array([1.0, 0.0])), stack[0])

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="one matrix per expert"):
            fuse(np.ones((2, 3, 2)), np.full(3, 1 / 3))


class TestRank:
    def test_single_attribute_orders_by_value(self):
        result = rank(np.array([[0.2], [0.5], [0.1]]))
        assert result.order == (1, 0, 2)

    def test_ties_keep_index_order(self):
        result = rank(np.array([[0.4, 0.4], [0.4, 0.4], [0.4, 0.4]]))
        assert result.order == (0, 1, 2)

    def test_scale_invariance_of_order(self):
        rng = np.random.default_rng(7)
        fused = rng.uniform(0.0, 1.0, size=(9, 3))
        base = rank(fused)
        scaled = rank(fused * 12.5)
        assert base.order == scaled.order
        np.testing.assert_allclose(scaled.scores, base.scores * 12.5, atol=1e-9)

    def test_ideal_is_columnwise_max(self):
        fused = np.array([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_allclose(rank(fused).ideal, [0.8, 0.9])

    def test_degenerate_all_zero(self):
        with pytest.raises(DegenerateRankingError):
            rank(np.zeros((3, 2)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rank(np.array([[0.2, -0.1], [0.3, 0.4]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^fused matrix must be 2-d, finite and nonnegative$"):
            rank(np.array([[bad, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("labels, message", [
        (("a", "b"), "^label counts do not match the matrix shape$"),
        (("a", "b", "c", "d"), "^label counts do not match the matrix shape$"),
        (("a", "a", "b"), "^alternative label 'a' repeats in the ranking$"),
    ], ids=["too-few", "too-many", "repeated"])
    def test_labels_are_checked_as_a_matrix_checks_them(self, labels, message):
        with pytest.raises(ValueError, match=message):
            rank(np.array([[0.2, 0.1], [0.5, 0.3], [0.1, 0.4]]), labels)

    def test_default_labels_are_the_matrix_defaults(self):
        fused = np.array([[0.2, 0.1], [0.5, 0.3], [0.1, 0.4]])
        assert rank(fused).alternative_labels == DecisionMatrix("e", fused).alternative_labels == ("1", "2", "3")
        assert rank(fused, ["x", "y", "z"]).ranked_labels() == ("y", "z", "x")


class TestRunPipelineValidation:
    """``run_pipeline`` takes a ``DecisionGroup``, or a list of records that
    ``DecisionGroup.from_matrices`` checks; both refuse the same faults."""

    def test_requires_two_experts(self):
        matrices = ref.decision_matrices()[:1]
        for group in (matrices, group_of(matrices)):
            with pytest.raises(ValueError, match="2 experts"):
                run_pipeline(group)

    def test_rejects_duplicate_ids(self):
        m = ref.decision_matrices()[0]
        with pytest.raises(ValueError, match="duplicate"):
            run_pipeline([m, m])
        with pytest.raises(ValueError, match="duplicate"):
            DecisionGroup((m.expert_id,) * 2, np.stack([m.values] * 2))

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(8)
        a = DecisionMatrix("a", rng.uniform(1, 9, (4, 2)))
        b = DecisionMatrix("b", rng.uniform(1, 9, (5, 2)))
        with pytest.raises(ValueError, match="shape"):
            run_pipeline([a, b])
        with pytest.raises(ValueError, match="shape"):
            DecisionGroup.from_matrices([a, b])

    def test_identical_experts_hit_zero_average_policy(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(1, 9, (4, 2))
        a = DecisionMatrix("a", values)
        b = DecisionMatrix("b", values.copy())
        for group in ([a, b], group_of([a, b])):
            with pytest.raises(ZeroDivergenceError):
                run_pipeline(group)
            result = run_pipeline(group, RunConfig(zero_average_policy="full-weight"))
            np.testing.assert_allclose(result.weights.weights, [0.5, 0.5])


DERIVED_STACKS = ("normalized", "plausibilities", "wpbl_profiles")


def result_arrays(result) -> dict:
    """Every array of a ``PipelineResult``, nested and derived records included, by path."""
    arrays = {name: getattr(result, name) for name in DERIVED_STACKS}
    records = {
        "": result, "memberships.": result.memberships, "bpa_tensors.": result.bpa_tensors,
        "owa.": result.owa, "weights.": result.weights, "ranking.": result.ranking,
    }
    arrays.update(
        (prefix + name, value)
        for prefix, record in records.items() if record is not None
        for name, value in vars(record).items() if isinstance(value, np.ndarray)
    )
    return {name: value for name, value in arrays.items() if value is not None}


class TestGroupInput:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(2, 16), p=st.integers(2, 12), q=st.integers(1, 4),
        with_ranking=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_group_and_list_runs_are_bit_identical(self, k, p, q, with_ranking, seed):
        values = np.random.default_rng(seed).uniform(1.0, 99.0, size=(k, p, q))
        matrices = [DecisionMatrix(f"e{e}", v) for e, v in enumerate(values)]
        # one attribute is profiled over the alternatives: over itself every profile is [1]
        config = RunConfig(zero_average_policy="full-weight", wpbl_axis="alternatives" if q == 1 else "attributes")
        expected = result_arrays(run_pipeline(matrices, config, with_ranking))
        assert len(expected) == (17 if with_ranking else 13)
        for group in (DecisionGroup.from_matrices(matrices), DecisionGroup(tuple(f"e{e}" for e in range(k)), values)):
            got = result_arrays(run_pipeline(group, config, with_ranking))
            assert got.keys() == expected.keys()
            for name, array in expected.items():
                assert got[name].tobytes() == array.tobytes(), name


def derived_case(input_kind: str):
    """3 experts' 7 x 3 matrices: a plain column, a two-valued one (its interior
    terms get no mass) and, for expert e1, a flat one; as a list or a group."""
    values = np.random.default_rng(21).uniform(1.0, 99.0, size=(3, 7, 3))
    values[:, :, 1] = [[10, 20, 10, 20, 20, 10, 10], [20, 10, 10, 10, 20, 20, 20], [10, 10, 20, 20, 10, 20, 10]]
    values[1, :, 2] = 42.0
    ids = ("e0", "e1", "e2")
    if input_kind == "group":
        return DecisionGroup(ids, values)
    return [DecisionMatrix(e, v) for e, v in zip(ids, values)]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


def watched(stage, refs: list):
    """``stage``, adding to ``refs`` a weak reference to what each call returns,
    to each array of a returned record, and to each such array's base."""
    def run(*args, **kwargs):
        out = stage(*args, **kwargs)
        record = not isinstance(out, np.ndarray)
        arrays = [v for v in vars(out).values() if isinstance(v, np.ndarray)] if record else [out]
        kept = [*arrays, *(a.base for a in arrays if a.base is not None), *([out] if record else [])]
        refs.extend(map(weakref.ref, kept))
        return out
    return run


# the stages behind each record that a PipelineResult derives on first read
DERIVING_STAGES = {
    "memberships": ("linguistic.membership_matrix",),
    "bpa_tensors": ("linguistic.membership_matrix", "linguistic.bpa_tensor"),
    "normalized": ("linguistic.normalize_decision_matrix",),
    "plausibilities": ("pipeline.ordered_weighted_plausibility",),
    "wpbl_profiles": ("pipeline.ordered_weighted_plausibility", "pipeline.expert_wpbl"),
}


class TestDerivedRecords:
    """``PipelineResult`` keeps the group, the beliefs and the pair table, not
    the memberships, masses, normalised stack, plausibilities or profiles:
    they are derived on first read, equal to the run's own records."""

    def test_run_keeps_no_membership_or_mass_array(self, monkeypatch):
        refs = []
        monkeypatch.setattr(pipeline, "membership_matrix", watched(membership_matrix, refs))
        monkeypatch.setattr(pipeline, "bpa_tensor", watched(bpa_tensor, refs))
        config = RunConfig(uniform_when_degenerate=True)
        result = run_pipeline(derived_case("list"), config)
        gc.collect()
        assert len(refs) >= 8
        assert [r for r in refs if r() is not None] == []
        assert result.weights.weights.sum() == pytest.approx(1.0)

    def test_run_keeps_no_normalised_plausibility_or_profile_stack(self, monkeypatch):
        refs = []
        for stage in ("normalize_decision_matrix", "ordered_weighted_plausibility", "expert_wpbl"):
            monkeypatch.setattr(pipeline, stage, watched(getattr(pipeline, stage), refs))
        result = run_pipeline(derived_case("list"), RunConfig(uniform_when_degenerate=True))
        gc.collect()
        assert len(refs) == 3
        assert [r for r in refs if r() is not None] == []
        assert result.ranking is not None

    @pytest.mark.parametrize("input_kind", ["list", "group"])
    @pytest.mark.parametrize("wpbl_axis", ["attributes", "alternatives"])
    @pytest.mark.parametrize("terms", [5, 9])
    def test_derived_records_equal_the_runs_own(self, monkeypatch, terms, wpbl_axis, input_kind):
        built = []

        def kept(stage):
            def run(*args, **kwargs):
                built.append(stage(*args, **kwargs))
                return built[-1]
            return run

        config = RunConfig(terms=terms, wpbl_axis=wpbl_axis, uniform_when_degenerate=True)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "membership_matrix", kept(membership_matrix))
            patch.setattr(pipeline, "bpa_tensor", kept(bpa_tensor))
            result = run_pipeline(derived_case(input_kind), config)
        run_memberships, run_masses = built
        direct = membership_matrix(result.group, terms=terms, uniform_when_degenerate=True)
        direct_masses = bpa_tensor(direct)
        got, got_masses = result.memberships, result.bpa_tensors
        for expected, expected_masses in ((run_memberships, run_masses), (direct, direct_masses)):
            for name in ("degrees", "lo", "hi"):
                assert same_bits(getattr(got, name), getattr(expected, name)), name
            assert got.segments == expected.segments == terms - 1
            assert same_bits(got_masses.masses, expected_masses.masses)
            assert got_masses.zero_columns == expected_masses.zero_columns
        assert np.all(got.degrees[1, :, 2] == 1.0 / terms)  # e1's flat column
        assert {(e, 1) for e in range(3)} <= {(e, j) for e, j, _ in got_masses.zero_columns}

    @pytest.mark.parametrize("with_ranking", [True, False])
    @pytest.mark.parametrize("wpbl_axis", ["attributes", "alternatives"])
    @pytest.mark.parametrize("terms", [5, 9])
    def test_derived_stacks_equal_the_runs_own(self, monkeypatch, terms, wpbl_axis, with_ranking):
        built = {}

        def kept(stage):
            def run(*args, **kwargs):
                built[stage.__name__] = stage(*args, **kwargs)
                return built[stage.__name__]
            return run

        config = RunConfig(terms=terms, wpbl_axis=wpbl_axis, uniform_when_degenerate=True)
        with monkeypatch.context() as patch:
            for stage in ("normalize_decision_matrix", "ordered_weighted_plausibility", "expert_wpbl"):
                patch.setattr(pipeline, stage, kept(getattr(pipeline, stage)))
            result = run_pipeline(derived_case("group"), config, with_ranking)
        assert ("normalize_decision_matrix" in built) == with_ranking
        if with_ranking:
            assert same_bits(result.normalized, built["normalize_decision_matrix"])
        else:
            assert result.normalized is None
        assert same_bits(result.plausibilities, built["ordered_weighted_plausibility"])
        assert same_bits(result.wpbl_profiles, built["expert_wpbl"])
        for stack in (result.plausibilities, result.wpbl_profiles):
            assert stack.transpose(0, 2, 1).flags.c_contiguous  # the beliefs' layout

    @pytest.mark.parametrize("first", list(DERIVING_STAGES))
    def test_first_read_runs_each_stage_once_more(self, tracing, first):
        tracer = tracing.Tracer()

        stages = {stage for named in DERIVING_STAGES.values() for stage in named}
        once_more = {stage: 1 + (stage in DERIVING_STAGES[first]) for stage in stages}

        def calls():
            table = tracing.summarize(tracer.spans)
            return {stage: table[stage]["calls"] for stage in stages}

        with tracing.Instrumentation(tracer):
            result = run_pipeline(random_matrices(np.random.default_rng(22)))
            assert set(calls().values()) == {1}
            record = getattr(result, first)
            assert calls() == once_more
            assert getattr(result, first) is record
            assert calls() == once_more
            records = {name: getattr(result, name) for name in DERIVING_STAGES}
            assert set(calls().values()) == {2}
            assert records[first] is record
            assert all(getattr(result, name) is r for name, r in records.items())
            assert set(calls().values()) == {2}


class TestResultSize:
    """A result holds its group, beliefs and pair table, and little more."""

    def test_a_run_beside_a_held_result_peaks_under_12_5_mb(self):
        # the many-experts size: a (k, p, q) stack is 0.82 MB, the pair table
        # 3.2 MB. A stack stored on the result counts twice at the peak, in the
        # held result and in the run's own: this reads 10.2 MB, and 13.4 MB
        # with the normalised, plausibility and profile stacks stored
        k, p, q = 64, 200, 8
        group = DecisionGroup(tuple(f"e{e}" for e in range(k)), np.random.default_rng(0).uniform(1.0, 100.0, (k, p, q)))
        run_pipeline(group)  # fills the per-k caches: the traced run then leaves only its result
        tracemalloc.start()
        try:
            result = run_pipeline(group)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a previous result held beside the run is as large as this one
        assert kept + peak <= 12.5e6
        pairs = k * (k - 1) // 2
        stored = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
        assert stored + group.values.nbytes <= 8 * (2 * k * p * q + pairs * p + 4 * k * k)


class TestTwoStages:
    """``run_pipeline`` is its snapshot, ``expert_stage``, ``weighting_stage``, then fuse and rank."""

    @pytest.mark.parametrize("input_kind", ["group", "list"])
    def test_writing_the_callers_array_after_a_run_changes_no_derived_stack(self, input_kind):
        rng = np.random.default_rng(23)
        values = rng.uniform(1.0, 99.0, size=(5, 9, 3))
        ids = tuple(f"e{e}" for e in range(5))
        if input_kind == "group":
            group = DecisionGroup(ids, values)
            assert np.shares_memory(group.values, values)  # a group is a view of the caller's array
        else:
            group = [DecisionMatrix(e, v) for e, v in zip(ids, values)]
        result = run_pipeline(group, RunConfig())
        before = values.copy()
        values[...] = rng.uniform(1.0, 99.0, size=values.shape)  # the caller reuses its buffer
        assert not np.shares_memory(result.group.values, values) and not result.group.values.flags.writeable
        assert same_bits(result.group.values, before)
        for name in DERIVING_STAGES:
            getattr(result, name)
        assert same_bits(ordered_weighted_belief(result.bpa_tensors, result.owa), result.beliefs)
        assert same_bits(fuse(result.normalized, result.weights.weights), result.ranking.fused)

    @pytest.mark.parametrize("case", ["paper", "k16"])
    def test_weighting_a_subset_of_the_beliefs_is_a_run_on_those_experts_alone(self, case):
        config = RunConfig()
        if case == "paper":
            group = DecisionGroup.from_matrices(ref.decision_matrices())
        else:
            values = np.random.default_rng(24).uniform(1.0, 99.0, size=(16, 30, 8))
            group = DecisionGroup(tuple(f"e{e:02d}" for e in range(16)), values)
        beliefs = run_pipeline(group, config).beliefs
        k = len(group.expert_ids)
        for out in range(k):
            keep = [e for e in range(k) if e != out]
            ids = tuple(group.expert_ids[e] for e in keep)
            alone = run_pipeline(DecisionGroup(ids, group.values[keep], group.alternative_labels), config)
            pair_ids, table, dmm, weights = weighting_stage(beliefs[keep], ids, config)
            assert pair_ids == alone.pair_ids
            assert same_bits(table.T, alone.pair_divergences) and same_bits(dmm, alone.dmm)
            assert same_bits(weights.weights, alone.weights.weights)
            assert weights.expert_ids == alone.weights.expert_ids == ids

    def test_the_weighting_stage_reads_any_layout_as_its_own(self):
        # at q = 8 numpy sums a C-contiguous row pairwise, so the profiles would
        # round apart from the belief stack's own (k, q, p) layout
        group = DecisionGroup(tuple(f"e{e}" for e in range(6)), np.random.default_rng(25).uniform(1.0, 99.0, (6, 40, 8)))
        config = RunConfig()
        owa, beliefs = expert_stage(group, config)
        assert owa is owa_weights(config.terms, config.owa_scheme, config.orness)
        assert beliefs.transpose(0, 2, 1).flags.c_contiguous
        own = weighting_stage(beliefs, group.expert_ids, config)
        for other in (np.ascontiguousarray(beliefs), np.asfortranarray(beliefs)):
            _, table, dmm, weights = weighting_stage(other, group.expert_ids, config)
            assert same_bits(table, own[1]) and same_bits(dmm, own[2])
            assert same_bits(weights.weights, own[3].weights)


class TestPipelineInvariants:
    def test_plausibility_splits_to_one_everywhere(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            result = run_pipeline(random_matrices(rng), RunConfig())
            np.testing.assert_allclose(sum(result.plausibilities), 1.0, atol=1e-9)

    def test_divergence_matrix_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            result = run_pipeline(random_matrices(rng, experts=4), RunConfig())
            np.testing.assert_allclose(result.dmm, result.dmm.T, atol=1e-15)
            np.testing.assert_allclose(np.diag(result.dmm), 0.0, atol=1e-15)
            assert np.all(result.dmm >= 0)

    def test_noise_never_helps_statistically(self):
        # starting from a consensual group, adding noise to one expert's
        # matrix must not raise its weight; one-sided sign test over
        # 200 trials at p < 0.01
        rng = np.random.default_rng(12)
        drops = 0
        trials = 200
        for _ in range(trials):
            truth = rng.uniform(10, 99, size=(6, 2))
            matrices = [
                DecisionMatrix(f"e{k}", truth + rng.normal(0, 2.0, size=truth.shape))
                for k in range(3)
            ]
            base = run_pipeline(matrices, RunConfig()).weights.weights[0]
            noisy = matrices[0].values + rng.normal(0, 15.0, size=truth.shape)
            perturbed = [DecisionMatrix("e0", noisy), matrices[1], matrices[2]]
            after = run_pipeline(perturbed, RunConfig()).weights.weights[0]
            drops += after < base
        # exact one-sided binomial tail P(X >= drops) for X ~ Bin(trials, 1/2)
        pvalue = sum(math.comb(trials, j) for j in range(drops, trials + 1)) / 2 ** trials
        assert pvalue < 0.01

    def test_ranking_invariant_under_fused_scaling(self):
        rng = np.random.default_rng(13)
        fused = rng.uniform(0.1, 1.0, size=(12, 4))
        assert rank(fused).order == rank(fused * 3.0).order

    def test_deterministic_reports(self):
        matrices = ref.decision_matrices()
        a = pipeline_report(run_pipeline(matrices, RunConfig()), include_intermediates=True)
        b = pipeline_report(run_pipeline(matrices, RunConfig()), include_intermediates=True)
        assert dump_json(a) == dump_json(b)

    def test_wpbl_axis_config_switches_reading(self):
        matrices = ref.decision_matrices()
        attr = run_pipeline(matrices, RunConfig())
        alt = run_pipeline(matrices, RunConfig(wpbl_axis="alternatives"))
        assert not np.allclose(attr.pair_divergences, alt.pair_divergences)
        np.testing.assert_allclose(attr.wpbl_profiles[0].sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(alt.wpbl_profiles[0].sum(axis=0), 1.0, atol=1e-9)


def scored_group(rng, k, p, q, ties=False, copies=0) -> DecisionGroup:
    """k experts' p x q scores on a 1-100 scale, or with ``ties`` on the five
    points 1-5; experts 1 to ``copies`` copy expert 0 with relative noise 1e-9."""
    values = rng.uniform(1.0, 100.0, size=(k, p, q))
    if ties:
        values = np.ceil(values / 20.0)
    values[1:copies + 1] = values[0] * (1 + 1e-9 * rng.standard_normal((copies, p, q)))
    return DecisionGroup(tuple(f"e{e}" for e in range(k)), values)


@st.composite
def scale_groups(draw, near_duplicates=True):
    """A ``scored_group`` of k 2-64, p 2-40 and q 2-6, with drawn ties and near-copies,
    and a configuration at pair weights (1/2, 1/2) or (0.8, 0.2); a flat column
    takes the uniform degrees."""
    k, p, q = draw(st.integers(2, 64)), draw(st.integers(2, 40)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    copies = draw(st.integers(0, k - 1)) if near_duplicates else 0
    config = RunConfig(
        terms=draw(st.sampled_from([5, 7, 9])), pair_weights=draw(st.sampled_from([(0.5, 0.5), (0.8, 0.2)])),
        uniform_when_degenerate=True, zero_average_policy="full-weight",
    )
    return scored_group(rng, k, p, q, draw(st.booleans()), copies), config


class TestPipelineLaws:
    """Laws of whole runs at sizes well beyond the paper case."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=scale_groups())
    @example(case=(  # the largest group, with 8 near-copies
        scored_group(np.random.default_rng(64), 64, 40, 6, copies=8),
        RunConfig(terms=9, uniform_when_degenerate=True, zero_average_policy="full-weight"),
    ))
    def test_weights_are_a_distribution_and_runs_repeat_bit_for_bit(self, case):
        group, config = case
        try:
            result = run_pipeline(group, config)
        except NegativeDivergenceError:
            # near-duplicates at unequal pair weights can round below zero: refused, never weighted
            assert config.pair_weights != (0.5, 0.5)
            return
        weights, dmm = result.weights.weights, result.dmm
        assert weights.min() >= 0 and abs(weights.sum() - 1.0) <= 1e-12
        assert np.array_equal(dmm, dmm.T) and not np.diag(dmm).any()
        if config.pair_weights == (0.5, 0.5):
            assert dmm.min() >= 0
        again = run_pipeline(group, config)
        for name in ("beliefs", "pair_divergences", "dmm", "weights.weights", "ranking.scores"):
            read = operator.attrgetter(name)
            assert same_bits(read(result), read(again)), name
        assert again.ranking.order == result.ranking.order

    @pytest.mark.parametrize("pair_weights", [
        (0.5, 0.5),
        (0.6, 0.4),
        # the signed kernel of unequal pair weights (ROADMAP item 1): (0.8, 0.2) refuses the
        # copies with an average of -1.6e-17, and (0.3, 0.7) leaves a divergence of 1.28e-16
        pytest.param((0.8, 0.2), marks=pytest.mark.xfail(
            raises=NegativeDivergenceError, strict=True, reason="ROADMAP item 1: signed kernel cancels")),
        pytest.param((0.3, 0.7), marks=pytest.mark.xfail(
            raises=AssertionError, strict=True, reason="ROADMAP item 1: signed kernel cancels")),
    ], ids=["half-half", "0.6-0.4", "0.8-0.2", "0.3-0.7"])
    def test_exact_copies_have_zero_divergence_and_share_the_weight(self, pair_weights):
        # the tied 5-point group that the affine law can draw: two experts, one matrix
        scores = np.array([[3, 2, 2], [1, 1, 1], [1, 5, 4], [5, 3, 4], [5, 4, 4]], dtype=float)
        group = DecisionGroup(("e0", "e1"), np.array([scores, scores]))
        config = RunConfig(pair_weights=pair_weights, zero_average_policy="full-weight")
        result = run_pipeline(group, config)
        assert not result.dmm.any()
        assert result.weights.weights.tolist() == [0.5, 0.5]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=scale_groups(near_duplicates=False), data=st.data())
    def test_an_affine_map_of_one_experts_column_keeps_the_weights(self, case, data):
        # each expert's own column extremes set its membership domain, so
        # alpha * x + beta (alpha > 0) moves only the rounding
        group, config = case
        base = run_pipeline(group, config, with_ranking=False).weights
        if base.zero_average_experts:  # identical experts share the weight only while bit-identical
            return
        k, _, q = group.values.shape
        e, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, q - 1))
        alpha = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        beta = alpha * data.draw(st.floats(-100.0, 100.0))
        values = group.values.copy()
        values[e, :, j] = alpha * values[e, :, j] + beta
        mapped = run_pipeline(DecisionGroup(group.expert_ids, values), config, with_ranking=False).weights
        assert np.all(np.abs(mapped.weights - base.weights) <= 1e-12 * base.weights)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(case=scale_groups(near_duplicates=False), scale=st.floats(-300.0, 300.0))
    def test_scaling_the_whole_group_keeps_the_weights(self, case, scale):
        # normalise divides each column by its norm, rescaling where the
        # squares would overflow or underflow, and memberships read each
        # expert's own extremes, so 10**scale moves only the rounding
        group, config = case
        try:
            base = run_pipeline(group, config, with_ranking=False).weights.weights
        except NegativeDivergenceError:
            # tied draws can copy an expert exactly: refused at unequal pair weights only
            assert config.pair_weights != (0.5, 0.5)
            return
        scaled = DecisionGroup(group.expert_ids, group.values * 10.0**scale)
        weights = run_pipeline(scaled, config, with_ranking=False).weights.weights
        # the signed kernel of unequal pair weights cancels (ROADMAP item 1):
        # up to 1.4e-14 there over 6000 scaled runs, against 7e-15 at (1/2, 1/2)
        bound = 1e-14 if config.pair_weights == (0.5, 0.5) else 1e-13
        assert np.all(np.abs(weights - base) <= bound * base)
