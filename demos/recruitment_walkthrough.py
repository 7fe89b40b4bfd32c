"""Walk the bundled recruitment study through every pipeline stage.

Four interviewers scored 17 manager candidates on two attributes. The
pipeline turns those raw scores into linguistic mass assignments,
ordered weighted beliefs, cross-expert plausibilities, pairwise
divergences, expert weights, and finally a fused ranking.

Run:  python demos/recruitment_walkthrough.py
"""

import numpy as np

from evidential_magdm import recruitment
from evidential_magdm.config import RunConfig
from evidential_magdm.linguistic import DecisionGroup, bpa_tensor, membership_matrix
from evidential_magdm.pipeline import run_pipeline

np.set_printoptions(precision=4, suppress=True)

# one checked (expert, candidate, attribute) record of the four CSVs
group = DecisionGroup.from_matrices(recruitment.decision_matrices())
config = RunConfig()

print("=== raw scores (expert u1, first five candidates) ===")
print(group.values[0, :5])

# Stage 1: each attribute's observed range is split into five linguistic
# terms; a candidate's score gets a degree in every term. The stage takes
# the whole expert group at once and returns one (expert, candidate,
# attribute, term) stack; row 0 is expert u1.
memberships = membership_matrix(group, terms=config.terms)
print("\n=== membership degrees, expert u1, candidate 1 (panel / 1-on-1) ===")
print(memberships.degrees[0, 0])
print("partition for u1's panel column:", memberships.partitions(0)[0])

# Column-normalising over candidates turns each (attribute, term) column
# into a mass assignment over the candidates.
masses = bpa_tensor(memberships).masses
print("\n=== masses, expert u1, candidate 1 ===")
print(masses[0, 0])
print("every (expert, attribute, term) column sums to one:",
      np.allclose(masses.sum(axis=1), 1.0))

# Stages 2-8 inside run_pipeline: ordered weighted belief, cross-expert
# plausibility, belief-plausibility profiles, pairwise divergences,
# expert weights, fusion, ideal-solution ranking.
result = run_pipeline(group, config)

print("\n=== ordered weighting vector", result.owa.scheme, "===")
print(result.owa.values, " orness:", round(result.owa.orness(), 4))

print("\n=== pairwise divergence per candidate (columns:",
      ", ".join("-".join(p) for p in result.pair_ids), ") ===")
print(result.pair_divergences)
print("column means:", result.pair_divergences.mean(axis=0))

print("\n=== divergence matrix over experts ===")
print(result.dmm)

print("\n=== expert weighting chain ===")
for i, expert in enumerate(result.expert_ids):
    print(f"  {expert}: average divergence {result.weights.averages[i]:.6f}"
          f" -> support {result.weights.supports[i]:8.2f}"
          f" -> weight {result.weights.weights[i]:.4f}")
print("expert ranking:", " > ".join(result.weights.ranking()))
print("published      :", " > ".join(recruitment.PUBLISHED_EXPERT_RANKING))

print("\n=== fused matrix and ranking ===")
ranking = result.ranking
print("ideal solution:", ranking.ideal)
order = ", ".join(ranking.ranked_labels())
print("candidates, best first:", order)
print("published order       :", ", ".join(map(str, recruitment.PUBLISHED_RANK_ORDER)))

print("\nNote: the published order is reproduced exactly when fusing with "
      "the published weights (see `evidential-magdm verify-paper`); with "
      "this run's own weights two mid-field neighbours may swap.")
