"""Feature fusion driven by the group-decision weighting.

Several feature sources describe the same samples (one matrix per
source, shared row order). Each source plays the role of an expert:
sample rows are the alternatives, feature dimensions the attributes.
The pipeline's inter-source divergence turns disagreement into per-source
weights (``FusionWeights``: one row per block of dimensions, and their
mean) on at most ``sample_cap`` rows, each block copied from the sources
on its own, and the sources are fused by convex combination one at a
time: neither stage stacks the sources in full. A nearest-centroid
classifier plus one-vs-rest confusion metrics quantify the signal kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .linguistic import DecisionGroup, normalize_decision_matrix
from .pipeline import run_pipeline


@dataclass(frozen=True)
class FeatureSet:
    """One source's features for a shared sample set, in any memory layout (normalisation
    fixes the summation order itself), and optional labels."""

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


@dataclass(frozen=True)
class FusionWeights:
    """Each block's ``run_pipeline`` weights, a (blocks, sources) matrix,
    and ``weights``, its column mean renormalised to sum to 1."""

    expert_ids: tuple[str, ...]
    block_weights: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def fusion_config(config: RunConfig | None = None) -> RunConfig:
    """``config`` as the weighting runs it: zero-average (duplicate) sources share the full weight."""
    return (config or RunConfig()).replace(zero_average_policy="full-weight")


def _name_non_finite(sources: list[FeatureSet]) -> None:
    """Raise for the first non-finite value, in source order then row-major, naming its source,
    dimension ``f<j>`` and sample ``s<i>``."""
    for s in sources:
        if not np.isfinite(s.features).all():
            i, j = np.argwhere(~np.isfinite(s.features))[0]
            raise ValueError(f"source {s.source_id!r} has non-finite value {s.features[i, j]} in f{j} at sample s{i}")


def _shape(sources: list[FeatureSet]) -> tuple[int, int]:
    """The (samples, dims) of at least 2 sources; the first source of another shape is named."""
    if len(sources) < 2:
        raise ValueError("fusion needs at least 2 sources")
    shape = sources[0].features.shape
    for s in sources:
        if s.features.shape != shape:
            raise ValueError(f"source {s.source_id!r} shape {s.features.shape} != {shape}")
    return shape


def estimate_fusion_weights(sources: list[FeatureSet], config: RunConfig | None = None) -> FusionWeights:
    """Per-source weights from inter-source variability of the features.

    At most ``sample_cap`` rows (a seeded choice, kept in row order) act as
    alternatives ``s<row>``, and each block of ``block_size`` dimensions
    ``f<j>`` runs as its own group, a last lone dimension with the block
    before it; the block weights are averaged and
    renormalised. Under ``fusion_config(config)`` identical sources come out
    uniform. A shape that differs, then a non-finite value in any row, is
    named before the first block. Each block's rows are copied into a
    C-contiguous (sources, width, rows) buffer whose transpose is the
    group's values, the layout ``membership_matrix`` reads as a view, and
    ``run_pipeline``'s snapshot keeps that layout.
    """
    config = fusion_config(config)
    n, d = _shape(sources)
    _name_non_finite(sources)
    rows = slice(None)  # a view of all rows
    if n > config.sample_cap:
        rows = np.sort(np.random.default_rng(config.seed).choice(n, size=config.sample_cap, replace=False))
    ids = tuple(s.source_id for s in sources)
    samples, dims = tuple(f"s{r}" for r in np.arange(n)[rows].tolist()), tuple(f"f{j}" for j in range(d))
    if len(samples) < 2 or d < 1:  # the group check names the whole shape, which no block holds
        DecisionGroup(ids, np.zeros((len(sources), len(samples), d)))
    starts = list(range(0, d, config.block_size))
    if len(starts) > 1 and d % config.block_size == 1:  # alone, one dimension's profiles are all [1]
        starts.pop()
    block_weights = []
    for start, stop in zip(starts, starts[1:] + [d]):
        values = np.array([s.features[rows, start:stop].T for s in sources])  # C-ordered: a new array
        # a flat column's error names its source and dimension through the block's labels
        group = DecisionGroup(ids, values.transpose(0, 2, 1), samples, dims[start:stop])
        block_weights.append(run_pipeline(group, config, with_ranking=False).weights.weights)
    block_weights = np.array(block_weights)
    mean = block_weights.mean(axis=0)
    return FusionWeights(ids, block_weights, mean / mean.sum())


def fuse_features(sources: list[FeatureSet], weights: FusionWeights) -> FeatureSet:
    """Convex combination of column-normalised sources, added in source order (``pipeline.fuse``).

    Each source is normalised alone, as a one-source ``DecisionGroup`` view, and scaled in that
    buffer, which is freed before the next is made: the peak is the output and one source.
    ``weights`` may be any record with ``expert_ids`` and ``weights`` (a pipeline ``ExpertWeights``
    too). Errors name, in order: a shape, the first non-finite value, a repeated id, another source
    list, the first sample whose labels differ (the fused set carries the labels), and the first
    all-zero dimension ``f<j>`` by source, then dimension.
    """
    n, d = _shape(sources)
    dims = tuple(f"f{j}" for j in range(d))
    try:
        groups = [DecisionGroup((s.source_id,), s.features[None], attribute_labels=dims) for s in sources]
    except ValueError:
        _name_non_finite(sources)
        raise
    ids = tuple(s.source_id for s in sources)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate expert ids: {ids}")
    if ids != tuple(weights.expert_ids):
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
    fused = np.zeros((n, d))
    for w, group in zip(weights.weights, groups, strict=True):
        normalized = normalize_decision_matrix(group)[0]
        fused += np.multiply(normalized, w, out=normalized)
        del normalized  # freed before the next source's buffer is made
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
    """Assign each sample the class of the nearest centroid (ties: lower id), one centroid at a time."""
    features = np.asarray(features, dtype=float)
    d2 = np.column_stack([((features - c) ** 2).sum(axis=1) for c in model.centroids])
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
    one source, checked before any weighting.
    """
    if all(s.labels is None for s in sources):
        raise ValueError("scoring requires labels on at least one source")
    config = config or RunConfig()
    weights = estimate_fusion_weights(sources, config)
    fused = fuse_features(sources, weights)
    cm, classes = held_out_confusion(fused.features, fused.labels, config.split_ratio, config.seed)
    return weights, fused, score(cm, classes=tuple(classes))


def make_synthetic_sources(seed: int, n_dims: int = 8) -> list[FeatureSet]:
    """Three-source benchmark: informative, mildly noisy copy, pure noise.

    Three classes of 80 samples each. Class means are drawn at scale 3
    against a within-class spread of 2, so the informative source
    separates the classes while staying smooth enough for the divergence
    weighting to read; the noisy copy adds noise at scale 0.7. The
    pure-noise source permutes each informative column independently: it
    keeps every marginal value distribution but destroys the
    label-feature association entirely.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 3.0, size=(3, n_dims))
    labels = np.repeat(np.arange(3), 80)
    informative = means[labels] + rng.normal(0.0, 2.0, size=(labels.size, n_dims))
    noisy_copy = informative + rng.normal(0.0, 0.7, size=informative.shape)
    pure_noise = np.column_stack(
        [rng.permutation(informative[:, j]) for j in range(n_dims)]
    )
    return [
        FeatureSet("informative", informative, labels),
        FeatureSet("noisy-copy", noisy_copy, labels),
        FeatureSet("pure-noise", pure_noise, labels),
    ]
