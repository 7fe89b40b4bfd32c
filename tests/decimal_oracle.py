"""50-digit reference values for the pair divergence stage (stdlib ``decimal``).

A float converts to ``Decimal`` and to ``Fraction`` exactly, so the only
rounding here is the oracle's own, some 35 digits below a double's.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

DIGITS = 50


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def mixture_cells(values, weights) -> list[Decimal]:
    """Per column of r rows: sum_f w_f v_f log(v_f / mix), mix = sum_f w_f v_f, in bits.

    A zero value or weight contributes 0. The weights, the mix and each
    ratio v_f / mix are exact fractions, so the weights sum to exactly 1
    and identical values give exactly 0: with the doubles 0.8 and 0.2,
    which sum to 1 + 5.6e-17, or with a rounded sum, a cell of two
    near-identical values would move by that excess times the value.
    """
    w = [Fraction(x) for x in np.asarray(weights, dtype=float).tolist()]
    w = [x / sum(w) for x in w]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ln2 = Decimal(2).ln()
        cells = []
        for column in np.asarray(values, dtype=float).T.tolist():
            v = [Fraction(x) for x in column]
            mix = sum(wf * vf for wf, vf in zip(w, v))
            total = Decimal(0)
            for wf, vf in zip(w, v):
                if wf > 0 and vf > 0:
                    total += _decimal(wf * vf) * _decimal(vf / mix).ln()
            cells.append(total / ln2)
        return cells


def pair_totals(a, b, weights=(0.5, 0.5)) -> list[Decimal]:
    """Per-alternative ordered weighted divergence of two (p, q) profiles, in bits.

    Each cell is the ``mixture_cells`` value of its larger and smaller
    value, the larger taking w_0; at (1/2, 1/2) it is the Jensen-Shannon cell.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cells = mixture_cells([np.maximum(a, b).ravel(), np.minimum(a, b).ravel()], weights)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [sum(cells[i:i + a.shape[1]], Decimal(0)) for i in range(0, len(cells), a.shape[1])]


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
