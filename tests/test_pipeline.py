"""Pipeline stage tests and whole-pipeline invariants."""

import math

import numpy as np
import pytest

from evidential_magdm import recruitment as ref
from evidential_magdm.config import RunConfig
from evidential_magdm.errors import (
    ConfigError,
    DegenerateCellError,
    DegenerateRankingError,
    ZeroDivergenceError,
)
from evidential_magdm.linguistic import DecisionMatrix, bpa_tensor, membership_matrix
from evidential_magdm.pipeline import (
    ExpertWeights,
    divergence_matrix,
    expert_weights,
    expert_wpbl,
    fuse,
    ordered_weighted_belief,
    ordered_weighted_plausibility,
    owa_weights,
    pairwise_divergence,
    rank,
    run_pipeline,
)
from evidential_magdm.report import dump_json, pipeline_report


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
        from evidential_magdm.pipeline import OwaWeights

        raw = np.array([0.5, 0.5])
        w = OwaWeights(raw, "given")
        raw[0] = 1.0
        assert w.values.tolist() == [0.5, 0.5]


class TestOrderedWeightedBelief:
    def tensor(self):
        return bpa_tensor(membership_matrix(ref.decision_matrices()[0]))

    def test_uniform_weights_give_row_mean(self):
        tensor = self.tensor()
        bel = ordered_weighted_belief(tensor, owa_weights(5, "uniform"))
        np.testing.assert_allclose(bel, tensor.masses.mean(axis=2), atol=1e-12)

    def test_top_weight_gives_row_max(self):
        tensor = self.tensor()
        from evidential_magdm.pipeline import OwaWeights

        top = OwaWeights(np.array([1.0, 0, 0, 0, 0]), "top")
        bel = ordered_weighted_belief(tensor, top)
        np.testing.assert_allclose(bel, tensor.masses.max(axis=2), atol=1e-12)

    def test_hand_dot_product_oracle(self):
        # published first-candidate panel masses, sorted descending and
        # dotted with (0.4, 0.3, 0.2, 0.1, 0) by hand
        row = [0.0351, 0.0408, 0.0513, 0.0952, 0.0759]
        expected = 0.4 * 0.0952 + 0.3 * 0.0759 + 0.2 * 0.0513 + 0.1 * 0.0408
        assert expected == pytest.approx(0.07519)
        tensor = self.tensor()
        from evidential_magdm.pipeline import OwaWeights

        w = OwaWeights(np.array([0.4, 0.3, 0.2, 0.1, 0.0]), "linear-descending")
        bel = ordered_weighted_belief(tensor, w)
        sorted_row = sorted(row, reverse=True)
        oracle = sum(wf * v for wf, v in zip(w.values, sorted_row))
        assert bel[0, 0] == pytest.approx(oracle, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ordered_weighted_belief(self.tensor(), owa_weights(4, "uniform"))


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
        columns = {("a", "b"): np.array([0.001, 0.003])}
        out = divergence_matrix(columns, ("a", "b"))
        np.testing.assert_allclose(out, [[0, 0.002], [0.002, 0]])

    def test_published_averages_reproduce_published_matrix(self):
        columns = {
            pair: np.full(17, avg)
            for pair, avg in zip(ref.EXPERT_PAIRS, ref.PUBLISHED_PAIR_AVERAGES)
        }
        out = divergence_matrix(columns, ref.EXPERT_IDS)
        np.testing.assert_allclose(out, ref.PUBLISHED_DIVERGENCE_MATRIX, atol=1e-4)

    def test_all_zero(self):
        columns = {("a", "b"): np.zeros(3), ("a", "c"): np.zeros(3), ("b", "c"): np.zeros(3)}
        np.testing.assert_allclose(divergence_matrix(columns, ("a", "b", "c")), 0.0)

    def test_sum_convention(self):
        columns = {("a", "b"): np.array([0.001, 0.003])}
        out = divergence_matrix(columns, ("a", "b"), mean_over_alternatives=False)
        assert out[0, 1] == pytest.approx(0.004)

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            divergence_matrix({("a", "b"): np.zeros(2)}, ("a", "b", "c"))

    @pytest.mark.parametrize("bad", [
        {("a", "b"): np.zeros(2), ("b", "a"): np.zeros(2), ("a", "c"): np.zeros(2)},
        {("a", "b"): np.zeros(2), ("a", "c"): np.zeros(2), ("c", "c"): np.zeros(2)},
        {("a", "b"): np.zeros(2), ("a", "c"): np.zeros(2), ("b", "c"): np.zeros(2), ("c", "b"): np.zeros(2)},
    ], ids=["pair-twice-missing-one", "self-pair", "pair-twice"])
    def test_pairs_must_appear_exactly_once(self, bad):
        with pytest.raises(ValueError, match="exactly once"):
            divergence_matrix(bad, ("a", "b", "c"))

    @pytest.mark.parametrize("mean", [True, False])
    def test_equals_per_column_reductions_bit_for_bit(self, mean):
        rng = np.random.default_rng(12)
        for k, p in ((2, 3), (3, 17), (5, 240), (9, 1000), (24, 50)):  # k=24: 276 pairs, over one chunk
            ids = tuple(f"e{i}" for i in range(k))
            pairs = [(a, b) if rng.random() < 0.5 else (b, a) for i, a in enumerate(ids) for b in ids[i + 1:]]
            rng.shuffle(pairs)
            columns = {pair: rng.exponential(1e-3, size=p) for pair in pairs}
            expected = np.zeros((k, k))
            for (a, b), column in columns.items():
                i, j = ids.index(a), ids.index(b)
                expected[i, j] = expected[j, i] = column.mean() if mean else column.sum()
            assert np.array_equal(divergence_matrix(columns, ids, mean), expected)


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

    def test_literal_sum_convention_same_weights(self):
        dmm = ref.PUBLISHED_DIVERGENCE_MATRIX
        by_k = expert_weights(dmm, ref.EXPERT_IDS, divide_by_k=True)
        literal = expert_weights(dmm, ref.EXPERT_IDS, divide_by_k=False)
        np.testing.assert_allclose(by_k.weights, literal.weights, atol=1e-12)
        np.testing.assert_allclose(literal.averages, by_k.averages * 4, atol=1e-15)

    def test_zero_average_policies(self):
        dmm = np.zeros((2, 2))
        with pytest.raises(ZeroDivergenceError):
            expert_weights(dmm, ("a", "b"))
        ew = expert_weights(dmm, ("a", "b"), zero_average_policy="full-weight")
        np.testing.assert_allclose(ew.weights, [0.5, 0.5])
        assert ew.zero_average_experts == ("a", "b")


class TestFuse:
    def test_identical_matrices(self):
        m = DecisionMatrix("a", np.array([[1.0, 2.0], [3.0, 4.0]]))
        ms = [m, DecisionMatrix("b", m.values.copy())]
        ew = ExpertWeights(("a", "b"), np.ones(2), np.ones(2), np.array([0.3, 0.7]))
        np.testing.assert_allclose(fuse(ms, ew), m.values)

    def test_one_hot_selects_expert(self):
        a = DecisionMatrix("a", np.array([[1.0], [2.0]]))
        b = DecisionMatrix("b", np.array([[5.0], [6.0]]))
        ew = ExpertWeights(("a", "b"), np.ones(2), np.ones(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(fuse([a, b], ew), a.values)

    def test_shape_mismatch(self):
        a = DecisionMatrix("a", np.ones((2, 2)))
        b = DecisionMatrix("b", np.ones((3, 2)))
        ew = ExpertWeights(("a", "b"), np.ones(2), np.ones(2), np.full(2, 0.5))
        with pytest.raises(ValueError):
            fuse([a, b], ew)


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


class TestRunPipelineValidation:
    def test_requires_two_experts(self):
        with pytest.raises(ValueError, match="2 experts"):
            run_pipeline(ref.decision_matrices()[:1])

    def test_rejects_duplicate_ids(self):
        m = ref.decision_matrices()[0]
        with pytest.raises(ValueError, match="duplicate"):
            run_pipeline([m, m])

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(8)
        a = DecisionMatrix("a", rng.uniform(1, 9, (4, 2)))
        b = DecisionMatrix("b", rng.uniform(1, 9, (5, 2)))
        with pytest.raises(ValueError, match="shape"):
            run_pipeline([a, b])

    def test_identical_experts_hit_zero_average_policy(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(1, 9, (4, 2))
        a = DecisionMatrix("a", values)
        b = DecisionMatrix("b", values.copy())
        with pytest.raises(ZeroDivergenceError):
            run_pipeline([a, b])
        result = run_pipeline(
            [a, b], RunConfig(zero_average_policy="full-weight")
        )
        np.testing.assert_allclose(result.weights.weights, [0.5, 0.5])


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
