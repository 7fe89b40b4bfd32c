"""Bundled recruitment case study and its published reference values.

Four interviewers score 17 manager candidates on two subjective
attributes (panel interview, 1-on-1 interview). The study's published
intermediate and final values back the ``verify-paper`` command and the
acceptance suite: membership degrees and masses for the first expert,
the pairwise expert divergence table, the expert weight chain, and the
fused ranking.

Two cells of the published membership table are transcription glitches
(see ``MEMBERSHIP_ERRATA``): they disagree with other rows of the same
table computed from identical inputs, and the published mass table is
consistent with the corrected values, not the printed ones.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataio import read_decision_matrices
from .linguistic import DecisionMatrix

EXPERT_IDS = ("u1", "u2", "u3", "u4")
EXPERT_PAIRS = (
    ("u1", "u2"), ("u1", "u3"), ("u1", "u4"),
    ("u2", "u3"), ("u2", "u4"), ("u3", "u4"),
)

DATA_DIR = Path(__file__).parent / "data" / "recruitment"


def decision_matrices() -> list[DecisionMatrix]:
    """The case study as one decision matrix per expert, read from the
    bundled CSVs (rows are candidates 1..17, columns panel and 1-on-1)."""
    return read_decision_matrices([DATA_DIR / f"{expert}.csv" for expert in EXPERT_IDS])


# Published membership degrees for expert u1 (panel terms 1..5, then
# 1-on-1 terms 1..5), four decimals as printed.
PUBLISHED_MEMBERSHIPS_U1 = np.array([
    [0.2500, 0.3333, 0.5000, 1.0000, 0.7500, 0.5714, 0.7619, 0.8571, 0.5714, 0.4286],
    [0.6250, 0.8333, 0.7500, 0.5000, 0.3750, 0.5714, 0.7619, 0.8571, 0.5714, 0.4286],
    [0.0000, 0.0000, 0.0000, 0.0000, 1.0000, 0.2857, 0.3809, 0.5714, 0.9523, 0.7142],
    [0.6250, 0.8333, 0.7500, 0.5000, 0.3750, 0.7142, 0.9523, 0.5714, 0.3809, 0.2857],
    [0.3750, 0.5000, 0.7500, 0.8333, 0.6250, 0.4285, 0.5714, 0.8571, 0.7619, 0.5714],
    [0.2500, 0.3333, 0.5000, 1.0000, 0.7500, 0.4285, 0.5714, 0.8571, 0.7619, 0.5714],
    [0.6250, 0.8333, 0.7500, 0.5000, 0.3750, 0.7143, 0.9523, 0.5714, 0.3809, 0.2857],
    [0.5000, 0.6667, 1.0000, 0.6667, 0.5000, 1.0000, 0.0000, 0.0000, 0.0000, 0.0000],
    [0.2500, 0.3333, 0.5000, 1.0000, 0.7500, 0.2857, 0.3809, 0.5714, 0.9523, 0.7143],
    [0.5000, 0.6667, 1.0000, 0.6670, 0.5000, 0.5714, 0.7619, 0.8571, 0.5714, 0.4286],
    [1.0000, 0.0000, 0.0000, 0.0000, 0.0000, 1.0000, 0.0000, 0.0000, 0.0000, 0.0000],
    [0.7500, 1.0000, 0.5000, 0.3333, 0.2500, 0.8571, 0.5714, 0.2857, 0.1904, 0.1428],
    [0.3750, 0.5000, 0.7500, 0.8333, 0.6250, 0.5714, 0.7619, 0.8571, 0.5714, 0.3809],
    [0.2500, 0.3333, 0.5000, 1.0000, 0.7500, 0.7142, 0.9523, 0.5714, 0.3809, 0.2857],
    [0.5000, 0.6667, 1.0000, 0.6667, 0.5000, 0.8571, 0.5714, 0.2857, 0.1905, 0.1428],
    [0.0000, 0.0000, 0.0000, 0.0000, 1.0000, 0.0000, 0.0000, 0.0000, 0.0000, 1.0000],
    [0.2500, 0.3333, 0.5000, 1.0000, 0.7500, 0.2857, 0.3809, 0.5714, 0.9523, 0.7143],
])

# (row index, column index) -> corrected value.
# Row 10 panel term 4 is printed at three decimals (0.667); rows 8 and 15
# print 0.6667 for the same input, so the stored table uses 0.6670 above
# and the corrected value here. Row 13 1-on-1 term 5 prints 0.3809 while
# row 1 prints 0.4286 for the identical score of 75, and the published
# mass table (0.0600 in that cell) matches 0.4286.
MEMBERSHIP_ERRATA = {
    (9, 3): 0.6667,
    (12, 9): 0.4286,
}

# Published masses for expert u1, same layout.
PUBLISHED_MASSES_U1 = np.array([
    [0.0351, 0.0408, 0.0513, 0.0952, 0.0759, 0.0579, 0.0816, 0.0937, 0.0697, 0.0600],
    [0.0877, 0.1021, 0.0769, 0.0476, 0.0379, 0.0579, 0.0816, 0.0937, 0.0697, 0.0600],
    [0.0000, 0.0000, 0.0000, 0.0000, 0.1012, 0.0289, 0.0408, 0.0625, 0.1163, 0.1000],
    [0.0877, 0.1021, 0.0769, 0.0476, 0.0379, 0.0725, 0.1021, 0.0625, 0.0465, 0.0400],
    [0.0526, 0.0612, 0.0769, 0.0793, 0.0633, 0.0435, 0.0612, 0.0937, 0.0931, 0.0800],
    [0.0351, 0.0408, 0.0512, 0.0952, 0.0759, 0.0435, 0.0612, 0.0937, 0.0931, 0.0800],
    [0.0877, 0.1021, 0.0769, 0.0476, 0.0379, 0.0725, 0.1021, 0.0625, 0.0465, 0.0400],
    [0.0702, 0.0816, 0.1026, 0.0635, 0.0506, 0.1014, 0.0000, 0.0000, 0.0000, 0.0000],
    [0.0351, 0.0408, 0.0512, 0.0952, 0.0759, 0.0289, 0.0408, 0.0625, 0.1162, 0.1000],
    [0.0702, 0.0816, 0.1026, 0.0635, 0.0506, 0.0579, 0.0816, 0.0938, 0.0697, 0.0600],
    [0.1404, 0.0000, 0.0000, 0.0000, 0.0000, 0.1015, 0.0000, 0.0000, 0.0000, 0.0000],
    [0.1053, 0.1224, 0.0513, 0.0317, 0.0253, 0.0869, 0.0612, 0.0313, 0.0233, 0.0200],
    [0.0526, 0.0612, 0.0769, 0.0794, 0.0633, 0.0579, 0.0816, 0.0938, 0.0698, 0.0600],
    [0.0351, 0.0408, 0.0513, 0.0952, 0.0759, 0.0724, 0.1021, 0.0625, 0.0465, 0.0400],
    [0.0702, 0.0816, 0.1026, 0.0635, 0.0506, 0.0869, 0.0612, 0.0313, 0.0233, 0.0200],
    [0.0000, 0.0000, 0.0000, 0.0000, 0.1013, 0.0000, 0.0000, 0.0000, 0.0000, 0.1400],
    [0.0351, 0.0408, 0.0512, 0.0952, 0.0759, 0.0289, 0.0408, 0.0625, 0.1163, 0.1000],
])

# Published pairwise expert divergences per candidate; columns follow
# EXPERT_PAIRS. The final row of the published table is the column mean.
PUBLISHED_PAIR_DIVERGENCES = np.array([
    [0.0006, 0.0000, 0.0002, 0.0007, 0.0016, 0.0003],
    [0.0031, 0.0004, 0.0009, 0.0059, 0.0074, 0.0001],
    [0.0036, 0.0058, 0.0029, 0.0003, 0.0001, 0.0005],
    [0.0003, 0.0001, 0.0009, 0.0006, 0.0001, 0.0013],
    [0.0004, 0.0009, 0.0049, 0.0001, 0.0026, 0.0016],
    [0.0000, 0.0001, 0.0032, 0.0001, 0.0034, 0.0026],
    [0.0000, 0.0001, 0.0020, 0.0000, 0.0022, 0.0004],
    [0.0005, 0.0034, 0.0015, 0.0012, 0.0002, 0.0004],
    [0.0039, 0.0037, 0.0017, 0.0001, 0.0005, 0.0004],
    [0.0011, 0.0001, 0.0000, 0.0009, 0.0010, 0.0000],
    [0.0036, 0.0025, 0.0029, 0.0001, 0.0001, 0.0000],
    [0.0093, 0.0053, 0.0045, 0.0006, 0.0009, 0.0000],
    [0.0004, 0.0040, 0.0044, 0.0019, 0.0021, 0.0001],
    [0.0002, 0.0021, 0.0041, 0.0035, 0.0060, 0.0003],
    [0.0065, 0.0003, 0.0008, 0.0041, 0.0028, 0.0001],
    [0.0045, 0.0044, 0.0045, 0.0000, 0.0000, 0.0000],
    [0.0001, 0.0007, 0.0061, 0.0014, 0.0081, 0.0027],
])
PUBLISHED_PAIR_AVERAGES = np.array([0.0023, 0.0021, 0.0027, 0.0012, 0.0023, 0.0007])

PUBLISHED_DIVERGENCE_MATRIX = np.array([
    [0.0000, 0.0023, 0.0021, 0.0027],
    [0.0023, 0.0000, 0.0012, 0.0023],
    [0.0021, 0.0012, 0.0000, 0.0007],
    [0.0027, 0.0023, 0.0007, 0.0000],
])

PUBLISHED_AVERAGE_DIVERGENCES = np.array([0.0017, 0.0014, 0.0010, 0.0014])
PUBLISHED_SUPPORTS = np.array([573.03, 691.65, 997.56, 704.38])
PUBLISHED_EXPERT_WEIGHTS = np.array([0.1932, 0.2331, 0.3362, 0.2374])
PUBLISHED_EXPERT_RANKING = ("u3", "u4", "u2", "u1")

# Published fused matrix (panel, 1-on-1 columns) and its ideal solution.
PUBLISHED_FUSED = np.array([
    [0.2715, 0.2474],
    [0.2137, 0.2364],
    [0.2797, 0.2869],
    [0.2093, 0.2218],
    [0.2164, 0.2264],
    [0.2544, 0.2599],
    [0.2211, 0.2241],
    [0.2513, 0.2235],
    [0.2961, 0.2791],
    [0.2299, 0.2449],
    [0.1982, 0.2101],
    [0.1796, 0.2002],
    [0.2373, 0.2454],
    [0.2578, 0.2308],
    [0.2225, 0.2187],
    [0.2929, 0.2821],
    [0.2444, 0.2534],
])
PUBLISHED_IDEAL = np.array([0.2961, 0.2869])

# Published per-candidate ranks. Two candidates share rank 12 and rank 11
# is absent (an apparent typo); the score-based order below resolves the
# tie with candidate 2 ahead of candidate 7, which both dot products
# support. The published "Weights" column is not reproducible from the
# stated closeness formula and is kept only for reference.
PUBLISHED_RANKS = (4, 12, 3, 15, 13, 5, 12, 9, 1, 10, 16, 17, 8, 7, 14, 2, 6)
PUBLISHED_RANK_WEIGHTS = np.array([
    0.4809, 0.4166, 0.5247, 0.3991, 0.4101, 0.4763, 0.4122, 0.4402, 0.5331,
    0.4396, 0.3781, 0.3515, 0.4470, 0.4530, 0.4087, 0.5328, 0.4609,
])
# Candidates (1-based) in published rank order, duplicate rank resolved.
PUBLISHED_RANK_ORDER = (9, 16, 3, 1, 6, 17, 14, 13, 8, 10, 2, 7, 5, 15, 4, 11, 12)
