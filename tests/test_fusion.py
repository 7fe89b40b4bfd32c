"""Feature-fusion harness tests."""

import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evidential_magdm import fusion, linguistic
from evidential_magdm.config import RunConfig
from evidential_magdm.errors import DegenerateAttributeError, DegenerateDomainError, ZeroDivergenceError
from evidential_magdm.evidence import SUM_TOL
from evidential_magdm.fusion import (
    CentroidModel,
    FeatureSet,
    FusionWeights,
    confusion_matrix,
    estimate_fusion_weights,
    evaluate_fusion,
    fuse_features,
    held_out_confusion,
    make_synthetic_sources,
    nearest_centroid_fit,
    nearest_centroid_predict,
    score,
    train_test_split_indices,
)
from evidential_magdm.linguistic import DecisionGroup, DecisionMatrix, normalize_decision_matrix
from evidential_magdm.pipeline import ExpertWeights, fuse, run_pipeline


# how far reversing the sources may move a weight, in units in the last place;
# 1500 random draws of ``fusion_cases`` moved one by at most 6
REVERSAL_ULPS = 16


def sources_from(*arrays, labels=None):
    return [
        FeatureSet(f"s{i}", arr, labels if i == 0 else None)
        for i, arr in enumerate(arrays)
    ]


def convex_combination(arrays, weights):
    """sum_i w_i * (x_i / ||x_i||) over columns, accumulated in source order."""
    out = np.zeros(arrays[0].shape)
    for w, x in zip(weights, arrays):
        out += w * (x / np.sqrt((x ** 2).sum(axis=0)))
    return out


def held_out_accuracy(features, labels, seed):
    cm, _ = held_out_confusion(features, labels, 0.8, seed)
    return np.trace(cm) / cm.sum()


class TestFeatureSet:
    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            FeatureSet("s", np.ones((3, 2)), labels=np.array([0, 1]))

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            FeatureSet("s", np.ones(5))


class TestEstimateFusionWeights:
    def test_identical_sources_uniform(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 1, size=(12, 4))
        sources = sources_from(base, base.copy(), base.copy())
        weights = estimate_fusion_weights(sources, RunConfig(block_size=4))
        np.testing.assert_allclose(weights.weights, 1 / 3, atol=1e-12)

    def test_weights_sum_to_one(self):
        sources = make_synthetic_sources(1)
        weights = estimate_fusion_weights(sources, RunConfig(seed=1))
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        sources = make_synthetic_sources(2)
        cfg = RunConfig(seed=2, sample_cap=96)
        base = estimate_fusion_weights(sources, cfg)
        shuffled = [sources[2], sources[0], sources[1]]
        permuted = estimate_fusion_weights(shuffled, cfg)
        lookup = dict(zip(permuted.expert_ids, permuted.weights))
        for sid, w in zip(base.expert_ids, base.weights):
            assert lookup[sid] == pytest.approx(w, abs=1e-12)

    def test_heavily_noised_copy_loses_weight(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(0, 1, size=(40, 6))
        s1 = truth
        s2 = truth + rng.normal(0, 4.0, size=truth.shape)  # large noise
        s3 = truth + rng.normal(0, 0.2, size=truth.shape)  # near copy
        sources = sources_from(s1, s2, s3)
        weights = estimate_fusion_weights(sources, RunConfig(seed=3, block_size=6))
        assert weights.weights[1] < weights.weights[0]
        assert weights.weights[1] < weights.weights[2]

    def test_requires_two_sources(self):
        with pytest.raises(ValueError):
            estimate_fusion_weights(sources_from(np.ones((4, 2))))

    def test_hand_traced_tiny_instance(self):
        # 2 sources, 2 dims, 3 samples; uniform ordered weights make the
        # whole chain computable with plain loops
        a = np.array([[1.0, 10.0], [2.0, 30.0], [4.0, 20.0]])
        b = np.array([[1.0, 20.0], [3.0, 10.0], [4.0, 30.0]])
        cfg = RunConfig(owa_scheme="uniform", block_size=2, sample_cap=8, seed=0)

        def mu_column(col):
            lo, hi = min(col), max(col)
            alpha = (hi - lo) / 4
            rows = []
            for y in col:
                row = [1 - (y - lo) / (hi - lo)]
                for h in (1, 2, 3):
                    peak = lo + h * alpha
                    if y <= peak:
                        row.append((y - lo) / (h * alpha))
                    else:
                        row.append(1 - (y - peak) / (hi - peak))
                row.append((y - lo) / (hi - lo))
                rows.append(row)
            return rows

        def masses(col):
            mu = mu_column(col)
            sums = [sum(mu[i][f] for i in range(3)) for f in range(5)]
            return [[mu[i][f] / sums[f] for f in range(5)] for i in range(3)]

        bel = {}
        for name, data in (("a", a), ("b", b)):
            bel[name] = [
                [sum(masses(data[:, j])[i]) / 5 for j in range(2)] for i in range(3)
            ]
        pl = {
            name: [
                [
                    bel[name][i][j] / (bel["a"][i][j] + bel["b"][i][j])
                    for j in range(2)
                ]
                for i in range(3)
            ]
            for name in ("a", "b")
        }
        profiles = {}
        for name in ("a", "b"):
            profiles[name] = []
            for i in range(3):
                t = [bel[name][i][j] + pl[name][i][j] for j in range(2)]
                total = sum(t)
                profiles[name].append([v / total for v in t])
        per_alt = []
        for i in range(3):
            term = 0.0
            for j in range(2):
                p, q = profiles["a"][i][j], profiles["b"][i][j]
                mix = (p + q) / 2
                term += 0.5 * p * math.log2(p / mix) + 0.5 * q * math.log2(q / mix)
            per_alt.append(term)
        d = sum(per_alt) / 3
        averages = [d / 2, d / 2]
        supports = [1 / x for x in averages]
        expected = [s / sum(supports) for s in supports]

        weights = estimate_fusion_weights(
            [FeatureSet("a", a), FeatureSet("b", b)], cfg
        )
        np.testing.assert_allclose(weights.weights, expected, atol=1e-12)
        # two-expert weights are forced symmetric, so also pin the traced
        # divergence against the pipeline's internal value
        np.testing.assert_allclose(weights.weights, [0.5, 0.5], atol=1e-12)
        from evidential_magdm.linguistic import DecisionMatrix
        from evidential_magdm.pipeline import run_pipeline

        mats = [DecisionMatrix("a", a), DecisionMatrix("b", b)]
        result = run_pipeline(mats, cfg, with_ranking=False)
        assert result.dmm[0, 1] == pytest.approx(d, abs=1e-12)
        np.testing.assert_allclose(
            result.pair_divergences[:, 0], per_alt, atol=1e-12
        )


def ix_gather_weights(sources, config):
    """Reference ``(per-block rows, weights)``: every block gathered with
    ``np.ix_`` and weighted by ``run_pipeline``, and the rows' renormalised mean."""
    config = config.replace(zero_average_policy="full-weight")
    n, d = sources[0].features.shape
    rng = np.random.default_rng(config.seed)
    if n > config.sample_cap:
        rows = np.sort(rng.choice(n, size=config.sample_cap, replace=False))
    else:
        rows = np.arange(n)
    per_block = []
    for start in range(0, d, config.block_size):
        block = np.arange(start, min(start + config.block_size, d))
        matrices = [
            DecisionMatrix(
                s.source_id, s.features[np.ix_(rows, block)],
                tuple(f"s{r}" for r in rows), tuple(f"f{c}" for c in block),
            )
            for s in sources
        ]
        per_block.append(run_pipeline(matrices, config, with_ranking=False).weights.weights)
    mean = np.mean(per_block, axis=0)
    return np.array(per_block), mean / mean.sum()


class TestFusionBlocks:
    """Blocks are column slices of one row selection per source."""

    CASES = {
        "all-rows": (16, RunConfig(seed=5, sample_cap=240)),
        "sampled-rows": (16, RunConfig(seed=6, sample_cap=100)),
        "ragged-last-block": (19, RunConfig(seed=7, sample_cap=240, block_size=8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_weights_equal_ix_gather_reference(self, case):
        dims, config = self.CASES[case]
        sources = make_synthetic_sources(config.seed, n_dims=dims)
        got = estimate_fusion_weights(sources, config)
        assert got.weights.tobytes() == ix_gather_weights(sources, config)[1].tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_weights_equal_ix_gather_reference(self, case):
        # row b is block b's run_pipeline weights, one column per source
        dims, config = self.CASES[case]
        sources = make_synthetic_sources(config.seed, n_dims=dims)
        got = estimate_fusion_weights(sources, config)
        assert got.block_weights.shape == (-(-dims // config.block_size), len(sources))
        assert got.block_weights.tobytes() == ix_gather_weights(sources, config)[0].tobytes()

    def test_weights_are_the_renormalised_block_mean(self):
        sources = make_synthetic_sources(5, n_dims=16)
        got = estimate_fusion_weights(sources, RunConfig(seed=5, sample_cap=240))
        assert [f.name for f in dataclasses.fields(got)] == ["expert_ids", "block_weights", "weights"]
        assert got.expert_ids == tuple(s.source_id for s in sources)
        mean = got.block_weights.mean(axis=0)
        assert got.weights.tobytes() == (mean / mean.sum()).tobytes()

    @pytest.mark.parametrize("dims", [9, 17])
    def test_a_lone_last_dimension_joins_the_block_before_it(self, dims):
        # alone it would be a one-attribute group, whose profiles are all [1]:
        # every source would get 1/3 whatever the data
        sources = make_synthetic_sources(3, n_dims=dims)
        config = RunConfig(sample_cap=240)
        got = estimate_fusion_weights(sources, config)
        assert got.block_weights.shape == (dims // 8, 3)
        tail = [FeatureSet(s.source_id, s.features[:, dims - 9:], s.labels) for s in sources]
        last = estimate_fusion_weights(tail, config.replace(block_size=9)).block_weights
        assert got.block_weights[-1].tobytes() == last[0].tobytes()
        assert not np.allclose(got.block_weights, 1 / 3)

    def test_one_dimension_blocks_are_refused_over_the_attributes(self):
        sources = make_synthetic_sources(3, n_dims=4)
        config = RunConfig(sample_cap=240, block_size=1)
        with pytest.raises(ZeroDivergenceError, match=r"\(wpbl_axis: alternatives\)$"):
            estimate_fusion_weights(sources, config)
        got = estimate_fusion_weights(sources, config.replace(wpbl_axis="alternatives"))
        assert got.block_weights.shape == (4, 3)  # no block is folded at block_size 1

    def capture_blocks(self, monkeypatch, sources, config):
        seen = []

        def recording(matrices, *args, **kwargs):
            seen.append(matrices)
            return run_pipeline(matrices, *args, **kwargs)

        monkeypatch.setattr(fusion, "run_pipeline", recording)
        estimate_fusion_weights(sources, config)
        return seen

    @pytest.mark.parametrize(
        "dims, sample_cap, rows", [(19, 240, 240), (16, 100, 100)], ids=["all-rows", "sampled-rows"],
    )
    def test_sampled_rows_are_gathered_once(self, monkeypatch, dims, sample_cap, rows):
        # each block's values are the transpose of a C-contiguous (sources, width, rows)
        # buffer of its own; run_pipeline's snapshot copies it in that layout, which
        # membership_matrix reads as a view
        kernel_values = []
        kernel = linguistic._membership_kernel

        def recording(values, *args, **kwargs):
            kernel_values.append(values)
            return kernel(values, *args, **kwargs)

        monkeypatch.setattr(linguistic, "_membership_kernel", recording)
        sources = make_synthetic_sources(5, n_dims=dims)
        blocks = self.capture_blocks(monkeypatch, sources, RunConfig(seed=6, sample_cap=sample_cap))
        assert all(isinstance(b, DecisionGroup) for b in blocks)
        assert blocks[-1].values.shape == (3, rows, dims % 8 or 8)
        assert len(kernel_values) == len(blocks)
        buffers = [b.values.base for b in blocks]
        for b, buffer, values in zip(blocks, buffers, kernel_values):
            width = b.values.shape[2]
            assert buffer.shape == (3, width, rows) and buffer.flags.c_contiguous
            assert b.values.strides == buffer.transpose(0, 2, 1).strides
            assert np.shares_memory(b.values, buffer) and b.expert_ids == tuple(s.source_id for s in sources)
            snapshot = values.base
            assert values.shape == (3 * width, rows) and snapshot.base is None
            assert snapshot.strides == b.values.strides and np.array_equal(snapshot, b.values)
            assert not np.shares_memory(snapshot, buffer)
            for s in sources:
                assert not np.shares_memory(buffer, s.features)
        for i, buffer in enumerate(buffers):
            for other in buffers[i + 1:]:
                assert not np.shares_memory(buffer, other)

    def test_peak_stays_below_the_stacked_sampled_sources(self):
        # no array of all sampled rows of every source: 3 x 240 x 256 doubles would be 1.47 MB
        sources = make_synthetic_sources(3, n_dims=256)
        config = RunConfig(sample_cap=240)
        estimate_fusion_weights(sources, config)  # fills the label and OWA caches
        tracemalloc.start()
        try:
            estimate_fusion_weights(sources, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 240 * 256 * 8

    def test_blocks_hold_the_sampled_rows_in_order(self, monkeypatch):
        config = RunConfig(seed=6, sample_cap=100)
        sources = make_synthetic_sources(6, n_dims=16)
        blocks = self.capture_blocks(monkeypatch, sources, config)
        rows = np.sort(np.random.default_rng(config.seed).choice(240, size=100, replace=False))
        for e, s in enumerate(sources):
            assert np.array_equal(np.hstack([b.values[e] for b in blocks]), s.features[rows])
        assert sum((b.attribute_labels for b in blocks), ()) == tuple(f"f{c}" for c in range(16))
        assert {b.alternative_labels for b in blocks} == {tuple(f"s{r}" for r in rows)}

    def test_weighting_and_fusion_build_no_decision_matrix(self, monkeypatch):
        # one group per call: the blocks are its column slices, not per-source records
        built = []
        check = DecisionMatrix.__post_init__

        def counted(self):
            built.append(self.expert_id)
            check(self)

        monkeypatch.setattr(DecisionMatrix, "__post_init__", counted)
        sources = make_synthetic_sources(5, n_dims=32)
        weights = estimate_fusion_weights(sources, RunConfig(sample_cap=240))
        fuse_features(sources, weights)
        assert built == []

    @pytest.mark.parametrize(
        "block_size, named", [(8, "attribute 'f5' of expert 'b'"), (4, "attribute 'f2' of expert 'c'")],
        ids=["same-block", "earlier-block"],
    )
    def test_flat_columns_in_two_sources_name_the_first_block_then_expert(self, block_size, named):
        # b is flat at dimension 5 and c at dimension 2: within one block the
        # first flat column in expert order is named, across blocks the
        # first block's
        rng = np.random.default_rng(8)
        a, b, c = (rng.normal(size=(12, 8)) for _ in range(3))
        b[:, 5] = 1.5
        c[:, 2] = -0.5
        sources = [FeatureSet("a", a), FeatureSet("b", b), FeatureSet("c", c)]
        message = f"{named} has a single observed value or a range that cannot be split into 4 segments"
        with pytest.raises(DegenerateDomainError, match=f"^{message}$"):
            estimate_fusion_weights(sources, RunConfig(block_size=block_size))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sample_cap", [240, 100], ids=["all-rows", "sampled-rows"])
    def test_non_finite_value_is_named_before_the_first_block(self, monkeypatch, value, sample_cap):
        # dimension 11 lies in the second block; the row is the last sampled one
        config = RunConfig(seed=6, sample_cap=sample_cap)
        sources = make_synthetic_sources(config.seed, n_dims=16)
        rows = np.random.default_rng(config.seed).choice(240, size=100, replace=False)
        row = int(rows.max()) if sample_cap == 100 else 239
        sources[1].features[row, 11] = value
        blocks = []
        monkeypatch.setattr(fusion, "run_pipeline", lambda *args, **kwargs: blocks.append(args))
        message = f"source 'noisy-copy' has non-finite value {value} in f11 at sample s{row}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_fusion_weights(sources, config)
        assert blocks == []

    @pytest.mark.parametrize("shape", [(1, 19), (12, 0)], ids=["one-sample", "no-dimension"])
    def test_too_small_sources_are_named_with_their_whole_shape(self, shape):
        sources = sources_from(*(np.ones(shape) for _ in range(3)))
        message = f"the decision group needs 3-d scores of at least 2 alternatives and 1 attribute, got {(3, *shape)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_fusion_weights(sources)

    def test_non_finite_value_in_an_unsampled_row_is_named(self):
        # the default sample_cap keeps 64 of 240 rows for the weights; fusion reads them all
        config = RunConfig()
        sources = make_synthetic_sources(6, n_dims=16)
        sampled = set(np.random.default_rng(config.seed).choice(240, size=config.sample_cap, replace=False).tolist())
        row = min(set(range(240)) - sampled)
        sources[1].features[row, 3] = math.nan
        message = f"source 'noisy-copy' has non-finite value nan in f3 at sample s{row}"
        uniform = ExpertWeights(tuple(s.source_id for s in sources), *[np.full(3, 1 / 3)] * 3)
        for call in (lambda: estimate_fusion_weights(sources, config), lambda: fuse_features(sources, uniform)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("sample_cap", [240, 100], ids=["all-rows", "sampled-rows"])
    def test_finite_values_are_scanned_once_per_group(self, monkeypatch, sample_cap):
        # each whole source once, before the first block, then each block's
        # own group check of its (sources, rows, width) values
        scans = []
        isfinite = np.isfinite

        def counted(values, *args, **kwargs):
            scans.append(np.shape(values))
            return isfinite(values, *args, **kwargs)

        def uniform(group, *args, **kwargs):
            scans.append("run")
            return SimpleNamespace(weights=SimpleNamespace(weights=np.full(3, 1 / 3)))

        sources = make_synthetic_sources(6, n_dims=16)
        monkeypatch.setattr(np, "isfinite", counted)
        monkeypatch.setattr(fusion, "run_pipeline", uniform)
        estimate_fusion_weights(sources, RunConfig(seed=6, sample_cap=sample_cap))
        assert scans == [(240, 16)] * 3 + [(3, sample_cap, 8), "run"] * 2


def stacked_fuse(arrays, ids, weights):
    """The sources stacked into one group, normalised in one call and fused: one copy of every
    source and one normalised stack, the formula ``fuse_features`` keeps the bits of."""
    group = DecisionGroup(ids, np.stack(arrays), attribute_labels=tuple(f"f{j}" for j in range(arrays[0].shape[1])))
    return fuse(normalize_decision_matrix(group), weights)


# 1e160 overflows a column's sum of squares and 1e-160 underflows it: both take normalise's rescale
_FUSION_SCALES = [1.0, 1.0, 1.0, 1.0, 1e160, 1e-160, 3.5e-3, 0.0]
_LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "reversed-rows": lambda x: np.ascontiguousarray(x[::-1])[::-1],
}


@st.composite
def fusion_cases(draw):
    """2..6 signed (n, d) sources of seeded normal values, whose sums round, each column times a
    drawn scale and each source in a drawn memory layout, with convex weights."""
    k, n, d = draw(st.integers(2, 6)), draw(st.integers(2, 40)), draw(st.integers(1, 5))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, 30.0, (k, n, d))
    scales = draw(hnp.arrays(float, (k, 1, d), elements=st.sampled_from(_FUSION_SCALES)))
    layouts = draw(st.lists(st.sampled_from(sorted(_LAYOUTS)), min_size=k, max_size=k))
    raw = draw(hnp.arrays(float, k, elements=st.floats(1e-3, 1.0)))
    return list(values * scales), layouts, raw / raw.sum()


class TestFuseFeatures:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=fusion_cases())
    def test_equals_the_stacked_normalise_and_fuse_bit_for_bit(self, case):
        arrays, layouts, w = case
        ids = tuple(f"s{e}" for e in range(len(arrays)))
        sources = [FeatureSet(i, _LAYOUTS[layout](x)) for i, layout, x in zip(ids, layouts, arrays)]
        weights = FusionWeights(ids, w[None], w)
        try:
            expected = stacked_fuse(arrays, ids, w)
        except DegenerateAttributeError as exc:
            with pytest.raises(DegenerateAttributeError, match=f"^{re.escape(str(exc))}$"):
                fuse_features(sources, weights)
            return
        assert fuse_features(sources, weights).features.tobytes() == expected.tobytes()

    def test_peak_is_the_output_and_one_source(self):
        # a stack of the 6 sources and its normalised copy would add 12 n*d*8 bytes
        k, n, d = 6, 400, 160
        rng = np.random.default_rng(11)
        sources = [FeatureSet(f"s{e}", rng.normal(size=(n, d))) for e in range(k)]
        w = rng.dirichlet(np.ones(k))
        weights = FusionWeights(tuple(s.source_id for s in sources), w[None], w)
        fuse_features(sources, weights)  # fills the label caches: the traced call leaves only its result
        tracemalloc.start()
        try:
            fused = fuse_features(sources, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * n * d * 8
        assert fused.features.tobytes() == stacked_fuse([s.features for s in sources], weights.expert_ids, w).tobytes()

    @pytest.mark.parametrize("fault", ["labels", "source-list", "both"])
    def test_non_finite_value_in_a_later_source_is_named_first(self, fault):
        rng = np.random.default_rng(12)
        labels = np.array([0, 1, 0, 1, 0, 1])
        a, b, c = (rng.normal(size=(6, 4)) for _ in range(3))
        b_labels = 1 - labels if fault != "source-list" else labels
        ids = ("a", "b", "c") if fault == "labels" else ("a", "c", "b")
        w = np.full(3, 1 / 3)
        weights = FusionWeights(ids, w[None], w)
        c[4, 1] = math.nan
        sources = [FeatureSet("a", a, labels), FeatureSet("b", b, b_labels), FeatureSet("c", c, labels)]
        message = "source 'c' has non-finite value nan in f1 at sample s4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuse_features(sources, weights)
        c[4, 1] = 0.5  # with the value finite, the other fault is named
        later = "different source list" if fault != "labels" else "source 'b' has label 1 at sample s0, source 'a' has 0"
        with pytest.raises(ValueError, match=later):
            fuse_features(sources, weights)

    def test_zero_columns_in_two_sources_name_the_earlier_source(self):
        # 'b' is zero at f3 and the later 'c' at f1: by source, then dimension
        rng = np.random.default_rng(13)
        a, b, c = (rng.normal(size=(5, 4)) for _ in range(3))
        b[:, 3] = 0.0
        c[:, 1] = 0.0
        w = np.full(3, 1 / 3)
        with pytest.raises(DegenerateAttributeError, match="^attribute 'f3' of expert 'b' is identically zero$"):
            fuse_features([FeatureSet("a", a), FeatureSet("b", b), FeatureSet("c", c)], FusionWeights(("a", "b", "c"), w[None], w))

    @pytest.mark.parametrize("ids", [("a", "a", "b"), ("x", "y", "z")], ids=["same-list", "other-list"])
    def test_repeated_source_ids_are_refused(self, ids):
        rng = np.random.default_rng(14)
        sources = [FeatureSet(i, rng.normal(size=(5, 3))) for i in ("a", "a", "b")]
        w = np.full(3, 1 / 3)
        with pytest.raises(ValueError, match=r"^duplicate expert ids: \('a', 'a', 'b'\)$"):
            fuse_features(sources, FusionWeights(ids, w[None], w))

    def test_identical_sources_recover_normalised_source(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(1, 5, size=(6, 3))
        sources = sources_from(base, base.copy())
        weights = estimate_fusion_weights(sources, RunConfig(block_size=3))
        fused = fuse_features(sources, weights)
        assert np.array_equal(fused.features, convex_combination([base, base], weights.weights))
        np.testing.assert_allclose(
            fused.features, base / np.sqrt((base ** 2).sum(axis=0)), atol=1e-12
        )

    def test_one_hot_weights_select_source(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(1, 5, (4, 2)), rng.uniform(1, 5, (4, 2))
        sources = sources_from(a, b)
        ew = ExpertWeights(("s0", "s1"), np.ones(2), np.ones(2), np.array([0.0, 1.0]))
        fused = fuse_features(sources, ew)
        assert np.array_equal(fused.features, b / np.sqrt((b ** 2).sum(axis=0)))

    def test_two_by_two_weighted_average(self):
        a = np.array([[3.0, 0.0], [4.0, 1.0]])
        b = np.array([[0.0, 2.0], [1.0, 0.0]])
        na = a / np.sqrt((a ** 2).sum(axis=0))
        nb = b / np.sqrt((b ** 2).sum(axis=0))
        ew = ExpertWeights(("s0", "s1"), np.ones(2), np.ones(2), np.array([0.25, 0.75]))
        fused = fuse_features(sources_from(a, b), ew)
        assert np.array_equal(fused.features, 0.25 * na + 0.75 * nb)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_weighted_sum_of_normalised_signed_sources(self, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(0.0, 3.0, (30, 7)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        ew = ExpertWeights(("s0", "s1", "s2"), np.ones(3), np.ones(3), w)
        fused = fuse_features(sources_from(*arrays), ew)
        assert np.array_equal(fused.features, convex_combination(arrays, w))

    def test_zero_column_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        b = np.array([[1.0, 1.0], [2.0, 2.0]])
        ew = ExpertWeights(("s0", "s1"), np.ones(2), np.ones(2), np.full(2, 0.5))
        with pytest.raises(DegenerateAttributeError, match="'f0' of expert 's0'"):
            fuse_features(sources_from(a, b), ew)

    def test_carries_labels_and_id(self):
        labels = np.array([0, 1, 0])
        sources = sources_from(np.ones((3, 2)), np.full((3, 2), 2.0), labels=labels)
        ew = ExpertWeights(("s0", "s1"), np.ones(2), np.ones(2), np.full(2, 0.5))
        fused = fuse_features(sources, ew)
        assert fused.source_id == "fused"
        np.testing.assert_array_equal(fused.labels, labels)

    def test_takes_a_fusion_weights_record(self):
        # only expert_ids and weights are read; block_weights play no part
        rng = np.random.default_rng(9)
        arrays = [rng.normal(0.0, 3.0, (30, 7)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        record = FusionWeights(("s0", "s1", "s2"), rng.dirichlet(np.ones(3), size=4), w)
        fused = fuse_features(sources_from(*arrays), record)
        assert np.array_equal(fused.features, convex_combination(arrays, w))
        with pytest.raises(ValueError, match="different source list"):
            fuse_features(sources_from(*arrays[:2]), FusionWeights(("s0", "s2"), w[None, :2], w[:2]))

    @pytest.mark.parametrize("weights, message", [
        ([2.0, -1.0, 0.0], "weight vector has negative entries"),
        ([0.5, 0.5], "expected 3 weights, got 2"),
    ], ids=["negative", "two-for-three"])
    def test_weights_are_checked_after_the_source_list(self, weights, message):
        # divergence.as_weight_vector, the one weight-vector check; (2, -1, 0) sums to 1
        rng = np.random.default_rng(15)
        sources = sources_from(*(rng.normal(size=(5, 3)) for _ in range(3)))
        w = np.array(weights)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuse_features(sources, FusionWeights(("s0", "s1", "s2"), w[None], w))
        with pytest.raises(ValueError, match="different source list"):
            fuse_features(sources, FusionWeights(("s0", "s2", "s1"), w[None], w))

    def test_disagreeing_labels_are_refused_naming_source_and_sample(self):
        # an unlabelled source takes no part; the first labelled one is the reference
        features = np.arange(8.0).reshape(4, 2) + 1.0
        sources = [
            FeatureSet("bare", features),
            FeatureSet("a", features, np.array([0, 1, 0, 1])),
            FeatureSet("b", features, np.array([0, 1, 1, 1])),
        ]
        ew = ExpertWeights(("bare", "a", "b"), np.ones(3), np.ones(3), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="source 'b' has label 1 at sample s2, source 'a' has 0"):
            fuse_features(sources, ew)
        fused = fuse_features(sources[:2] + [FeatureSet("b", features, np.array([0, 1, 0, 1]))], ew)
        np.testing.assert_array_equal(fused.labels, [0, 1, 0, 1])


@st.composite
def fusion_cases(draw, max_sources=6):
    """2 to ``max_sources`` sources of 20-240 samples x 8-96 dimensions (a shared signal plus
    each source's own noise, scale and offset) with block sizes 2-16 and sample caps 20-240."""
    m, n, d = draw(st.integers(2, max_sources)), draw(st.integers(20, 240)), draw(st.integers(8, 96))
    config = RunConfig(block_size=draw(st.integers(2, 16)), sample_cap=draw(st.integers(20, 240)),
                       seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signal = rng.normal(size=(n, d))
    sources = [
        FeatureSet(f"s{i}", rng.uniform(0.1, 10) * (signal + rng.uniform(0.05, 3) * rng.normal(size=(n, d)))
                   + rng.uniform(-5, 5))
        for i in range(m)
    ]
    return sources, config


class TestFusionLaws:
    """Laws of ``estimate_fusion_weights`` on drawn sources; their example
    counts come from the hypothesis profile (``tests/conftest.py``)."""

    @settings(deadline=None)
    @given(case=fusion_cases())
    def test_the_weights_and_each_blocks_weights_are_distributions(self, case):
        sources, config = case
        got = estimate_fusion_weights(sources, config)
        d, width = sources[0].n_dims, config.block_size
        blocks = -(-d // width) - (d > width and d % width == 1)  # a lone last dimension joins the block before
        assert got.block_weights.shape == (blocks, len(sources)) and got.weights.shape == (len(sources),)
        for weights in (got.weights, *got.block_weights):
            assert weights.min() >= 0 and abs(weights.sum() - 1.0) <= SUM_TOL

    @settings(deadline=None)
    @given(case=fusion_cases())
    def test_reversing_the_sources_reverses_the_weights(self, case):
        # pair divergences do not depend on the pair's order, but the
        # plausibility totals and each expert's row sum add in source order
        sources, config = case
        base = estimate_fusion_weights(sources, config)
        reversed_ = estimate_fusion_weights(sources[::-1], config)
        assert reversed_.expert_ids == base.expert_ids[::-1]
        for got, want in ((reversed_.weights[::-1], base.weights),
                          (reversed_.block_weights[:, ::-1], base.block_weights)):
            assert np.all(np.abs(got - want) <= REVERSAL_ULPS * np.spacing(want)), np.abs(got - want) / np.spacing(want)

    @settings(deadline=None)
    @given(case=fusion_cases(), data=st.data())
    def test_an_affine_map_of_one_sources_dimension_keeps_the_weights(self, case, data):
        # each source's own column extremes set its membership domain, so
        # alpha * x + beta (alpha > 0) moves only the rounding
        sources, config = case
        base = estimate_fusion_weights(sources, config).weights
        i, j = data.draw(st.integers(0, len(sources) - 1)), data.draw(st.integers(0, sources[0].n_dims - 1))
        alpha = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        beta = alpha * data.draw(st.floats(-100.0, 100.0))
        features = sources[i].features.copy()
        features[:, j] = alpha * features[:, j] + beta
        mapped = sources[:i] + [FeatureSet(sources[i].source_id, features)] + sources[i + 1:]
        weights = estimate_fusion_weights(mapped, config).weights
        assert np.all(np.abs(weights - base) <= 1e-14 * base), np.abs(weights - base) / base

    @settings(deadline=None)
    @given(case=fusion_cases(max_sources=2))
    def test_two_sources_share_every_block_equally(self, case):
        # with k = 2 both experts' averages are the one pair divergence
        sources, config = case
        got = estimate_fusion_weights(sources, config)
        assert got.weights.tolist() == [0.5, 0.5]
        assert np.all(got.block_weights == 0.5)


class TestNearestCentroid:
    def test_separated_blobs_perfect_training_accuracy(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(0, 0.3, size=(30, 2))
        x1 = rng.normal(8, 0.3, size=(30, 2))
        features = np.vstack([x0, x1])
        labels = np.array([0] * 30 + [1] * 30)
        model = nearest_centroid_fit(features, labels)
        predictions = nearest_centroid_predict(model, features)
        assert (predictions == labels).all()

    def test_tie_goes_to_lower_class(self):
        features = np.array([[0.0], [2.0]])
        labels = np.array([3, 7])
        model = nearest_centroid_fit(features, labels)
        assert nearest_centroid_predict(model, np.array([[1.0]]))[0] == 3

    def test_equals_the_broadcast_distances_with_ties(self):
        # integer centroids and queries make equidistant samples common, and
        # argmin over the (samples, classes) distances takes the lower class;
        # normal values over up to 40 dims check each row's pairwise sum
        rng = np.random.default_rng(15)
        ties = 0
        for case in range(400):
            classes = np.sort(rng.choice(10, size=rng.integers(1, 5), replace=False))
            d = rng.integers(1, 5) if case % 2 else rng.integers(1, 41)
            if case % 2:
                draw = lambda *shape: rng.integers(-2, 3, size=shape).astype(float)
            else:
                draw = lambda *shape: rng.normal(size=shape)
            centroids, queries = draw(classes.size, d), draw(rng.integers(1, 12), d)
            d2 = ((queries[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            ties += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            got = nearest_centroid_predict(CentroidModel(classes, centroids), queries)
            assert np.array_equal(got, classes[np.argmin(d2, axis=1)])
        assert ties >= 100

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        features = rng.normal(0, 1, size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        model = nearest_centroid_fit(features, labels)
        queries = rng.normal(0, 1, size=(25, 3))
        predictions = nearest_centroid_predict(model, queries)
        for i, x in enumerate(queries):
            best, best_d = None, None
            for c in sorted(set(labels.tolist())):
                centroid = features[labels == c].mean(axis=0)
                dist = ((x - centroid) ** 2).sum()
                if best_d is None or dist < best_d:
                    best, best_d = c, dist
            assert predictions[i] == best


class TestConfusionAndScore:
    def test_perfect_diagonal(self):
        report = score(np.diag([10, 20, 30]))
        for c in report.classes:
            for value in report.per_class[c].values():
                assert value == pytest.approx(1.0)
        assert report.kappa == pytest.approx(1.0)

    def test_degenerate_binary_predictor(self):
        report = score(np.array([[50, 0], [50, 0]]))
        c0 = report.per_class[0]
        assert c0["sensitivity"] == pytest.approx(1.0)
        assert c0["specificity"] == pytest.approx(0.0)
        assert c0["accuracy"] == pytest.approx(0.5)
        assert report.kappa == pytest.approx(0.0)
        # class 1 is never predicted: precision undefined, excluded
        assert report.per_class[1]["precision"] is None
        assert (1, "precision") in report.excluded
        assert report.to_dict()["per_class"]["1"]["precision"] == "undefined"

    def test_counting_oracle_random_matrix(self):
        rng = np.random.default_rng(8)
        y_true = rng.integers(0, 3, size=300)
        y_pred = rng.integers(0, 3, size=300)
        cm = confusion_matrix(y_true, y_pred, classes=(0, 1, 2))
        report = score(cm, classes=(0, 1, 2))
        for c in (0, 1, 2):
            tp = int(((y_true == c) & (y_pred == c)).sum())
            fn = int(((y_true == c) & (y_pred != c)).sum())
            fp = int(((y_true != c) & (y_pred == c)).sum())
            tn = int(((y_true != c) & (y_pred != c)).sum())
            got = report.per_class[c]
            assert got["accuracy"] == pytest.approx((tp + tn) / 300)
            assert got["sensitivity"] == pytest.approx(tp / (tp + fn))
            assert got["specificity"] == pytest.approx(tn / (tn + fp))
            assert got["precision"] == pytest.approx(tp / (tp + fp))

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(9)
        cm = rng.integers(0, 30, size=(4, 4))
        cm[np.diag_indices(4)] += 10
        report = score(cm)
        for c in report.classes:
            m = report.per_class[c]
            if m["precision"] and m["sensitivity"]:
                expected = 2 / (1 / m["precision"] + 1 / m["sensitivity"])
                assert m["f1"] == pytest.approx(expected, abs=1e-12)

    def test_kappa_matches_manual_formula(self):
        cm = np.array([[20, 5], [10, 15]])
        report = score(cm)
        total = 50
        p_o = 35 / total
        p_e = (25 * 30 + 25 * 20) / total**2
        assert report.kappa == pytest.approx((p_o - p_e) / (1 - p_e))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            score(np.zeros((2, 2), dtype=int))


class TestSplitAndEvaluate:
    def test_split_deterministic_and_disjoint(self):
        a_train, a_test = train_test_split_indices(100, 0.8, 5)
        b_train, b_test = train_test_split_indices(100, 0.8, 5)
        np.testing.assert_array_equal(a_train, b_train)
        assert len(a_train) == 80 and len(a_test) == 20
        assert set(a_train).isdisjoint(a_test)

    def test_evaluate_fusion_end_to_end(self):
        sources = make_synthetic_sources(11)
        cfg = RunConfig(seed=11, sample_cap=240)
        weights, fused, metrics = evaluate_fusion(sources, cfg)
        assert weights.weights.sum() == pytest.approx(1.0)
        assert fused.source_id == "fused"
        assert metrics.macro["accuracy"] > 0.6

    @pytest.mark.parametrize("seed", range(4))
    def test_held_out_accuracy_equals_prediction_mean(self, seed):
        sources = make_synthetic_sources(seed)
        labels = sources[0].labels
        train, test = train_test_split_indices(labels.size, 0.8, seed)
        for source in sources:
            model = nearest_centroid_fit(source.features[train], labels[train])
            predicted = nearest_centroid_predict(model, source.features[test])
            cm, classes = held_out_confusion(source.features, labels, 0.8, seed)
            np.testing.assert_array_equal(classes, model.classes)
            assert cm.sum() == test.size
            assert np.trace(cm) / cm.sum() == (predicted == labels[test]).mean()

    def test_unlabelled_sources_are_refused_before_any_block(self, monkeypatch):
        seen = []

        def recording(matrices, *args, **kwargs):
            seen.append(matrices)
            return run_pipeline(matrices, *args, **kwargs)

        monkeypatch.setattr(fusion, "run_pipeline", recording)
        sources = [FeatureSet(s.source_id, s.features) for s in make_synthetic_sources(2)]
        with pytest.raises(ValueError, match="^scoring requires labels on at least one source$"):
            evaluate_fusion(sources, RunConfig())
        assert seen == []

    def test_evaluate_fusion_scores_the_held_out_confusion(self):
        sources = make_synthetic_sources(3)
        cfg = RunConfig(seed=3, sample_cap=240)
        _, fused, metrics = evaluate_fusion(sources, cfg)
        cm, classes = held_out_confusion(fused.features, fused.labels, cfg.split_ratio, cfg.seed)
        assert metrics == score(cm, classes=tuple(classes))

    def test_class_seen_only_in_test_split_gets_a_row(self):
        train, test = train_test_split_indices(10, 0.8, 0)
        labels = np.zeros(10, dtype=int)
        labels[test[0]] = 1
        features = np.arange(10.0)[:, None]
        cm, classes = held_out_confusion(features, labels, 0.8, 0)
        np.testing.assert_array_equal(classes, [0, 1])
        assert cm[1].sum() == 1 and cm[:, 1].sum() == 0
        assert score(cm, classes=tuple(classes)).per_class[1]["sensitivity"] == 0.0

    def test_fused_beats_pure_noise(self):
        sources = make_synthetic_sources(12)
        cfg = RunConfig(seed=12, sample_cap=240)
        weights = estimate_fusion_weights(sources, cfg)
        fused = fuse_features(sources, weights)
        acc_fused = held_out_accuracy(fused.features, fused.labels, 12)
        acc_noise = held_out_accuracy(sources[2].features, sources[0].labels, 12)
        assert acc_fused > acc_noise

    def test_two_source_fusion_keeps_signal(self):
        # informative + pure noise only: fused accuracy must beat the
        # noise-only baseline in at least 80% of 50 seeded trials
        wins = 0
        for seed in range(50):
            sources = make_synthetic_sources(seed)
            informative, _, noise = sources
            pair = [informative, noise]
            weights = estimate_fusion_weights(pair, RunConfig(seed=seed, sample_cap=240))
            fused = fuse_features(pair, weights)
            labels = informative.labels
            acc_fused = held_out_accuracy(fused.features, labels, seed)
            acc_noise = held_out_accuracy(noise.features, labels, seed)
            wins += acc_fused >= acc_noise
        assert wins >= 40


class TestSyntheticSources:
    def test_structure(self):
        sources = make_synthetic_sources(0)
        assert [s.source_id for s in sources] == ["informative", "noisy-copy", "pure-noise"]
        shapes = {s.features.shape for s in sources}
        assert shapes == {(240, 8)}
        np.testing.assert_array_equal(sources[0].labels, sources[1].labels)

    def test_pure_noise_preserves_marginals(self):
        sources = make_synthetic_sources(1)
        informative, _, noise = sources
        for j in range(informative.n_dims):
            np.testing.assert_allclose(
                np.sort(noise.features[:, j]), np.sort(informative.features[:, j])
            )

    def test_deterministic(self):
        a = make_synthetic_sources(5)
        b = make_synthetic_sources(5)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.features, s2.features)
