"""Feature fusion driven by the group-decision weighting.

Several feature sources describe the same samples (one matrix per
source, shared row order). Each source plays the role of an expert:
sample rows are the alternatives, feature dimensions the attributes.
The pipeline's inter-source divergence turns disagreement into per-source
weights, the sources are fused by convex combination, and a nearest-
centroid classifier plus one-vs-rest confusion metrics quantify how much
signal the fusion kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .linguistic import DecisionMatrix, normalize_decision_matrix
from .pipeline import ExpertWeights, fuse, run_pipeline


@dataclass(frozen=True)
class FeatureSet:
    """One source's features for a shared sample set; optional labels."""

    source_id: str
    features: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.features, dtype=float)
        if arr.ndim != 2:
            raise ValueError("features must be a 2-d matrix (samples x dims)")
        object.__setattr__(self, "features", arr)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (arr.shape[0],):
                raise ValueError(
                    f"labels shape {lab.shape} does not match {arr.shape[0]} samples"
                )
            object.__setattr__(self, "labels", lab)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_dims(self) -> int:
        return self.features.shape[1]


def _check_conformable(sources: list[FeatureSet]) -> tuple[int, int]:
    """Shared shape, distinct ids and finite values; returns (samples, dims)."""
    if len(sources) < 2:
        raise ValueError("fusion needs at least 2 sources")
    shape = sources[0].features.shape
    for s in sources[1:]:
        if s.features.shape != shape:
            raise ValueError(
                f"source {s.source_id!r} shape {s.features.shape} != {shape}"
            )
    ids = [s.source_id for s in sources]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate source ids: {ids}")
    for s in sources:
        if not np.isfinite(s.features).all():
            i, j = np.argwhere(~np.isfinite(s.features))[0]
            raise ValueError(f"source {s.source_id!r} has non-finite value {s.features[i, j]} in f{j} at sample s{i}")
    return shape


def estimate_fusion_weights(sources: list[FeatureSet], config: RunConfig | None = None) -> ExpertWeights:
    """Per-source weights from inter-source variability of the features.

    At most ``sample_cap`` rows (deterministic seeded choice, kept in row
    order) act as alternatives; feature dimensions are processed in
    blocks of ``block_size`` attributes, and block weights are averaged
    and renormalised. Each source's sampled rows are gathered once into
    one C-contiguous (dims, samples) array, and each block is the
    transpose of a row slice of it, which the expert stage stacks as it
    is. A non-finite value in any row, sampled or not, is reported with
    its source, dimension and row before any block runs.
    Sources with zero average divergence (for example byte-identical
    duplicates) share the full weight, so identical sources come out uniform.
    """
    config = (config or RunConfig()).replace(zero_average_policy="full-weight")
    n, d = _check_conformable(sources)
    rng = np.random.default_rng(config.seed)
    if n > config.sample_cap:
        rows = np.sort(rng.choice(n, size=config.sample_cap, replace=False))
        sampled = [s.features[rows] for s in sources]
    else:
        rows = np.arange(n)
        sampled = [s.features for s in sources]
    transposed = [np.ascontiguousarray(f.T) for f in sampled]
    ids = tuple(s.source_id for s in sources)
    row_labels = tuple(f"s{r}" for r in rows)
    per_block = []
    for start in range(0, d, config.block_size):
        stop = min(start + config.block_size, d)
        dim_labels = tuple(f"f{c}" for c in range(start, stop))
        matrices = [
            DecisionMatrix(s.source_id, f[start:stop].T, row_labels, dim_labels)
            for s, f in zip(sources, transposed)
        ]
        # degenerate-column errors surface from the linguistic stage with
        # the offending source and dimension named via the labels above
        result = run_pipeline(matrices, config, with_ranking=False)
        per_block.append(result.weights.weights)
    mean = np.mean(per_block, axis=0)
    weights = mean / mean.sum()
    supports = np.full(len(ids), np.nan)
    averages = np.full(len(ids), np.nan)
    return ExpertWeights(ids, averages, supports, weights)


def fuse_features(sources: list[FeatureSet], weights: ExpertWeights) -> FeatureSet:
    """Convex combination of column-normalised sources (``pipeline.fuse``).

    A zero dimension is named ``f<j>`` with its source in the error. The
    labelled sources must agree on every sample's label; the fused set
    carries their labels.
    """
    _, d = _check_conformable(sources)
    if tuple(s.source_id for s in sources) != weights.expert_ids:
        raise ValueError("weights were estimated for a different source list")
    labelled = [s for s in sources if s.labels is not None]
    for s in labelled[1:]:
        differ = np.flatnonzero(s.labels != labelled[0].labels)
        if differ.size:
            i = differ[0]
            raise ValueError(
                f"source {s.source_id!r} has label {s.labels[i]} at sample s{i}, "
                f"source {labelled[0].source_id!r} has {labelled[0].labels[i]}"
            )
    dims = tuple(f"f{j}" for j in range(d))
    normalized = normalize_decision_matrix(
        [DecisionMatrix(s.source_id, s.features, attribute_labels=dims) for s in sources]
    )
    fused = fuse(normalized, weights.weights)
    return FeatureSet("fused", fused, labelled[0].labels if labelled else None)


def _distinct(values) -> np.ndarray:
    """Sorted distinct values, flattened: ``np.unique`` without its import of ``numpy.ma``."""
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


@dataclass(frozen=True)
class CentroidModel:
    classes: np.ndarray = field(repr=False)
    centroids: np.ndarray = field(repr=False)


def nearest_centroid_fit(features: np.ndarray, labels: np.ndarray) -> CentroidModel:
    """Class mean vectors; every class needs at least one sample."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    classes = _distinct(labels)
    if classes.size < 1:
        raise ValueError("no training samples")
    centroids = np.vstack([features[labels == c].mean(axis=0) for c in classes])
    return CentroidModel(classes, centroids)


def nearest_centroid_predict(model: CentroidModel, features: np.ndarray) -> np.ndarray:
    """Assign each sample the class of the nearest centroid (ties: lower id)."""
    features = np.asarray(features, dtype=float)
    d2 = ((features[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    return model.classes[np.argmin(d2, axis=1)]


def confusion_matrix(y_true, y_pred, classes=None) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if classes is None:
        classes = _distinct(np.concatenate([y_true, y_pred]))
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(classes), len(classes)), dtype=int)
    for t, p in zip(y_true, y_pred):
        out[index[t], index[p]] += 1
    return out


PER_CLASS_METRICS = ("accuracy", "sensitivity", "specificity", "precision", "f1")


@dataclass(frozen=True)
class MetricsReport:
    """One-vs-rest metrics per class, macro averages, and Cohen's kappa.

    Ratios with zero denominators are ``None`` ("undefined"), never NaN;
    undefined entries are left out of the macro averages and listed in
    ``excluded``.
    """

    classes: tuple
    per_class: dict
    macro: dict
    kappa: float | None
    excluded: tuple = ()

    def to_dict(self) -> dict:
        def clean(d):
            return {k: ("undefined" if v is None else v) for k, v in d.items()}

        return {
            "classes": [str(c) for c in self.classes],
            "per_class": {str(c): clean(self.per_class[c]) for c in self.classes},
            "macro": clean(self.macro),
            "kappa": "undefined" if self.kappa is None else self.kappa,
            "excluded_from_macro": [[str(c), m] for c, m in self.excluded],
        }


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def score(cm: np.ndarray, classes=None) -> MetricsReport:
    """Per-class one-vs-rest metrics from a confusion matrix."""
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    n = cm.shape[0]
    if classes is None:
        classes = tuple(range(n))
    per_class = {}
    excluded = []
    for i, c in enumerate(classes):
        tp = float(cm[i, i])
        fn = float(cm[i, :].sum() - tp)
        fp = float(cm[:, i].sum() - tp)
        tn = float(total - tp - fn - fp)
        precision = _ratio(tp, tp + fp)
        sensitivity = _ratio(tp, tp + fn)
        if precision is None or sensitivity is None or precision + sensitivity == 0:
            f1 = None
        else:
            f1 = 2 * precision * sensitivity / (precision + sensitivity)
        metrics = {
            "accuracy": (tp + tn) / total,
            "sensitivity": sensitivity,
            "specificity": _ratio(tn, tn + fp),
            "precision": precision,
            "f1": f1,
        }
        per_class[c] = metrics
        excluded.extend((c, name) for name, v in metrics.items() if v is None)
    macro = {}
    for name in PER_CLASS_METRICS:
        defined = [per_class[c][name] for c in classes if per_class[c][name] is not None]
        macro[name] = sum(defined) / len(defined) if defined else None
    p_observed = float(np.trace(cm)) / total
    p_chance = float((cm.sum(axis=1) * cm.sum(axis=0)).sum()) / total**2
    if p_chance == 1.0:
        kappa = 1.0 if p_observed == 1.0 else None
    else:
        kappa = (p_observed - p_chance) / (1.0 - p_chance)
    return MetricsReport(tuple(classes), per_class, macro, kappa, tuple(excluded))


def train_test_split_indices(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled split; first ``ratio`` of the permutation trains."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cut = max(1, min(n - 1, int(round(n * ratio))))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def held_out_confusion(
    features: np.ndarray, labels: np.ndarray, ratio: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid ``(cm, classes)`` on a deterministic train/test split.

    ``classes`` holds every label, so a class seen only in the test split
    still gets a row; held-out accuracy is ``np.trace(cm) / cm.sum()``.
    """
    train, test = train_test_split_indices(len(labels), ratio, seed)
    model = nearest_centroid_fit(features[train], labels[train])
    predicted = nearest_centroid_predict(model, features[test])
    classes = _distinct(labels)
    return confusion_matrix(labels[test], predicted, classes=classes), classes


def evaluate_fusion(sources: list[FeatureSet], config: RunConfig | None = None):
    """Weights, fused features, and held-out metrics in one pass.

    Returns ``(weights, fused, metrics)``; requires labels on at least
    one source.
    """
    config = config or RunConfig()
    weights = estimate_fusion_weights(sources, config)
    fused = fuse_features(sources, weights)
    if fused.labels is None:
        raise ValueError("scoring requires labels on at least one source")
    cm, classes = held_out_confusion(fused.features, fused.labels, config.split_ratio, config.seed)
    return weights, fused, score(cm, classes=tuple(classes))


def make_synthetic_sources(
    seed: int,
    n_per_class: int = 80,
    n_classes: int = 3,
    n_dims: int = 8,
    copy_noise: float = 0.7,
    separation: float = 3.0,
    within: float = 2.0,
) -> list[FeatureSet]:
    """Three-source benchmark: informative, mildly noisy copy, pure noise.

    Class means are drawn at ``separation`` scale against ``within``
    within-class spread, so the informative source separates the classes
    while staying smooth enough for the divergence weighting to read.
    The pure-noise source permutes each informative column independently:
    it keeps every marginal value distribution but destroys the
    label-feature association entirely.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, separation, size=(n_classes, n_dims))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    informative = means[labels] + rng.normal(0.0, within, size=(labels.size, n_dims))
    noisy_copy = informative + rng.normal(0.0, copy_noise, size=informative.shape)
    pure_noise = np.column_stack(
        [rng.permutation(informative[:, j]) for j in range(n_dims)]
    )
    return [
        FeatureSet("informative", informative, labels),
        FeatureSet("noisy-copy", noisy_copy, labels),
        FeatureSet("pure-noise", pure_noise, labels),
    ]
