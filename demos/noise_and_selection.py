"""Tour of the base mechanisms: geometric slice noise, Laplace noise,
exponential-mechanism selection and bounded-quality selection.

Run: python3 demos/noise_and_selection.py
"""

import numpy as np

from slicedp import (
    QualityFunction,
    choosing_error_bound,
    choosing_mechanism,
    exponential_mechanism,
    geometric_pmf,
    sample_geometric,
    sample_laplace,
)

rng = np.random.default_rng(7)

print("== one-sided geometric noise ==")
eps = 0.5
draws = np.array([sample_geometric(eps, rng) for _ in range(20000)])
print(f"epsilon={eps}: mean={draws.mean():.3f}, "
      f"theory={np.exp(-eps) / (1 - np.exp(-eps)):.3f}")
for k in range(4):
    print(f"  Pr[{k}] empirical {np.mean(draws == k):.4f} "
          f"vs exact {geometric_pmf(eps, k):.4f}")

print()
print("== Laplace noise ==")
noise = np.array([sample_laplace(2.0, rng) for _ in range(20000)])
print(f"scale 2.0: median={np.median(noise):+.3f}, "
      f"Pr[|X| > 4]={np.mean(np.abs(noise) > 4):.3f} (theory {np.exp(-2):.3f})")

print()
print("== exponential mechanism ==")
# pick the candidate whose count in the data is largest, privately
data = [1, 1, 1, 1, 2, 3]
quality = QualityFunction(evaluate=lambda d, c: sum(1 for v in d if v == c))
picks = [exponential_mechanism([1, 2, 3], quality, data, 1.0, rng)
         for _ in range(2000)]
for c in (1, 2, 3):
    print(f"  candidate {c}: picked {picks.count(c) / 2000:.3f}")

print()
print("== bounded-quality selection with a fallback ==")
# each data point raises the score of exactly one candidate
dataset = np.array([5] * 900 + [9] * 100)
quality = QualityFunction(
    evaluate=lambda d, c: int(np.sum(np.asarray(d) == c)),
    bound_k=1,
    touched=lambda d: sorted(set(int(v) for v in d)))
bound = choosing_error_bound(1.0, 0.1, 0.1, k=1, n=len(dataset))
print(f"  error bound {bound:.1f}, dominant candidate count 900")
wins = sum(choosing_mechanism(quality, dataset, 1.0, 0.1, 0.1, rng,
                              fallback=-1) == 5 for _ in range(200))
print(f"  dominant candidate chosen {wins}/200")
# counts far below the bound make the gate route to the fallback instead
sparse = np.array([5] * 20 + [9] * 4)
falls = sum(choosing_mechanism(quality, sparse, 1.0, 0.1, 0.1, rng,
                               fallback=-1) == -1 for _ in range(200))
print(f"  with only 20 dominant points the fallback fires {falls}/200")

