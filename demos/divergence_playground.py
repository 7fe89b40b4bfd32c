"""Evidence primitives and the divergence-measure family, numerically.

Run:  python demos/divergence_playground.py
"""

import numpy as np

from evidential_magdm.divergence import (
    LogBase,
    generalized_belief_divergence,
    generalized_js_divergence,
    js_divergence,
    kl_divergence,
    weighted_belief_divergence,
)
from evidential_magdm.evidence import (
    Bpa,
    FrameOfDiscernment,
    belief,
    plausibility,
    wpbl,
)

frame = FrameOfDiscernment(("sunny", "cloudy", "rainy"))
singletons = [["sunny"], ["cloudy"], ["rainy"]]

# --- mass functions, belief and plausibility -------------------------------
m1 = Bpa(frame, {"sunny": 0.55, ("sunny", "cloudy"): 0.3, "rainy": 0.15})
m2 = Bpa(frame, {"cloudy": 0.4, ("sunny", "cloudy"): 0.4, "rainy": 0.2})

print("m1:", m1)
print("\nBel(sunny) =", round(belief(m1, ["sunny"]), 4),
      " Pl(sunny) =", round(plausibility(m1, ["sunny"]), 4))
print("belief is the committed lower bound, plausibility the upper bound")

# --- the normalised belief-plausibility profile ----------------------------
profile_1 = wpbl(m1, singletons).values
profile_2 = wpbl(m2, singletons).values
print("\nbelief-plausibility profiles over the singletons:")
print("  m1 ->", np.round(profile_1, 4))
print("  m2 ->", np.round(profile_2, 4))

# --- divergences ------------------------------------------------------------
print("\nKL((0.7,0.3) || (0.5,0.5)) =", round(kl_divergence((0.7, 0.3), (0.5, 0.5)), 6))
print("JS is symmetric and bounded by one in base 2:")
print("  JS((1,0),(0,1)) =", js_divergence((1.0, 0.0), (0.0, 1.0)))
print("  JS(m1,m2 profiles) =", round(js_divergence(profile_1, profile_2), 6))

print("\nbelief JS divergence: the weighted divergence at its default (0.5, 0.5),")
print("which is the JS divergence of the two profiles:")
print("  ", round(weighted_belief_divergence(m1, m2, singletons), 6))

print("\nweighted divergence with uneven weights (0.7, 0.3):")
print("  ", round(weighted_belief_divergence(m1, m2, singletons, (0.7, 0.3)), 6))

m3 = Bpa(frame, {"sunny": 0.2, "cloudy": 0.2, "rainy": 0.6})
value = generalized_belief_divergence([m1, m2, m3], singletons, (0.4, 0.4, 0.2))
print("\nthree-way generalized divergence:", round(value, 6))
print("bounded by log2(3) =", round(np.log2(3), 6))
print("zero when all inputs coincide:",
      generalized_belief_divergence([m1, m1, m1], singletons, (0.4, 0.4, 0.2)))

# --- the generalized JS identity -------------------------------------------
rng = np.random.default_rng(0)
dists = [rng.dirichlet(np.ones(4)) for _ in range(3)]
w = (0.5, 0.3, 0.2)
lhs = generalized_js_divergence(dists, w)
mixture = sum(wi * d for wi, d in zip(w, dists))
rhs = sum(wi * kl_divergence(d, mixture) for wi, d in zip(w, dists))
print("\nentropy form vs KL-decomposition of the generalized JS:")
print("  ", round(lhs, 10), "==", round(rhs, 10))

print("\nnatural-log variant of any measure scales by ln 2:")
a, b = (0.8, 0.2), (0.3, 0.7)
print("  base2:", round(js_divergence(a, b, LogBase.TWO), 6),
      " ln:", round(js_divergence(a, b, LogBase.NATURAL), 6))
