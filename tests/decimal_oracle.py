"""50-digit reference values for the pair divergence stage (stdlib ``decimal``).

A float converts to ``Decimal`` exactly, so the only rounding here is the
oracle's own, some 35 digits below a double's.
"""

from decimal import Decimal, localcontext

import numpy as np

DIGITS = 50


def pair_totals(a, b, weights=(0.5, 0.5)) -> list[Decimal]:
    """Per-alternative ordered weighted divergence of two (p, q) profiles, in bits.

    Per cell: w_0 hi log(hi / mix) + w_1 lo log(lo / mix), mix = w_0 hi + w_1 lo,
    where hi and lo are the cell's larger and smaller value; a zero value or
    weight contributes 0. At (1/2, 1/2) this is the Jensen-Shannon cell. The
    weights are scaled to sum to exactly 1, which keeps every cell >= 0: the
    doubles 0.8 and 0.2 sum to 1 + 5.6e-17, and that excess alone would move
    a cell of two near-identical values by about -5.6e-17 times the value.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w0, w1 = (Decimal(float(w)) for w in weights)
        w0, w1 = w0 / (w0 + w1), w1 / (w0 + w1)
        ln2 = Decimal(2).ln()
        totals = []
        for row_a, row_b in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
            total = Decimal(0)
            for x, y in zip(row_a, row_b):
                hi, lo = Decimal(max(x, y)), Decimal(min(x, y))
                mix = w0 * hi + w1 * lo
                for w, v in ((w0, hi), (w1, lo)):
                    if w > 0 and v > 0:
                        total += w * v * (v / mix).ln()
            totals.append(total / ln2)
        return totals


def relative_errors(got, expected: list[Decimal]) -> list[float]:
    """|got - expected| / expected per entry; 0 where both are 0, inf where only ``expected`` is."""
    errors = []
    for g, e in zip(np.asarray(got).tolist(), expected):
        if e == 0:
            errors.append(0.0 if g == 0 else float("inf"))
        else:
            errors.append(float(abs(Decimal(g) - e) / e))
    return errors


def expert_weights(profiles) -> list[float]:
    """The pipeline's default weight chain on exact pair divergences at (1/2, 1/2).

    Mean over alternatives per pair, average per expert divided by k,
    reciprocal supports, normalised.
    """
    k = len(profiles)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        sums = [Decimal(0)] * k
        for i in range(k):
            for j in range(i + 1, k):
                totals = pair_totals(profiles[i], profiles[j])
                mean = sum(totals, Decimal(0)) / len(totals)
                sums[i] += mean
                sums[j] += mean
        supports = [k / s for s in sums]
        return [float(s / sum(supports, Decimal(0))) for s in supports]


def ordered_weighted_sums(masses, weights) -> list[Decimal]:
    """Σ_f w_f · (f-th largest mass) for each cell of a (..., terms) array, in C order."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w = [Decimal(x) for x in np.asarray(weights, dtype=float).tolist()]
        cells = np.asarray(masses, dtype=float).reshape(-1, len(w)).tolist()
        return [
            sum((wf * Decimal(m) for wf, m in zip(w, sorted(cell, reverse=True))), Decimal(0))
            for cell in cells
        ]
