"""First order operators commute with rotations; higher order ones cannot.

The defect printed below is the norm of T(pullback f) - pullback(T f)
for the rotation x -> c + A(x - c) about the box midpoint, probed on a
localized Gaussian.  For k = 1 any rotation commutes and the probe sits
at grid precision.  For k = 2 the derivative dictionary singles out
coordinate directions, so generic rotations break it by order one,
while signed coordinate permutations still commute exactly.
"""

import math

import numpy as np

from divcurl import Form, GridField, grid_points, invariance_defect, spec_for

P, sigma = 64, 0.24
xs = grid_points(2, P)
# math.exp per node: np.exp's bits depend on numpy's SIMD level, libm's do not
g = np.vectorize(math.exp)(-np.sum((xs - np.pi) ** 2, axis=-1) / (2 * sigma**2))
F = Form(2, 2, 0, {(): GridField(2, P, g)}, backend="grid")


def rot(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


first = spec_for(2, 1, 1)
rng = np.random.default_rng(0)
worst = max(invariance_defect(first, rot(rng.uniform(0, 2 * np.pi)), F)
            for _ in range(10))
print(f"k=1, ten random rotations, worst defect: {worst:.3e}")
print()

print("k=2, rotation by 0.9 rad:")
for spec in [spec_for(2, 2, 1, "diagonal"), spec_for(2, 2, 1, "chained"),
             spec_for(2, 2, 2)]:
    d = invariance_defect(spec, rot(0.9), F)
    print(f"  ordering={spec.ordering.kind:<13} ell={spec.ell}: "
          f"defect = {d:.3f}")
print()

swap = np.array([[0.0, 1.0], [1.0, 0.0]])
d = invariance_defect(spec_for(2, 2, 1, "diagonal"), swap, F)
print(f"k=2 under a coordinate swap: defect = {d:.3e} "
      f"(signed permutations still commute)")
