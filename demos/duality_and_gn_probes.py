"""Numerical evidence for the inequality constants being scale free.

Two quotients are probed on random localized bump fields:

* duality_ratio  |<F, H>| / (||F||_1 ||grad H||_n)
* gn_ratio       ||u||_{W^{k-1, n/(n-1)}} / (||T u||_1 + ||T* u||_1)

Both should be insensitive to dilating the bump supports (the continuum
quotients are built from exponents that cancel the scaling) and to grid
refinement.  The excluded degrees q in {1, n-1} need a side condition;
the library enforces that instead of quietly returning a number.
"""

import random

from divcurl import (
    bump_form,
    classical_gn_ratio,
    dilate_form_specs,
    duality_ratio,
    gn_ratio,
    make_coclosed_source,
    random_bump_form,
    spec_for,
)

rng = random.Random(2)

print("duality ratio under support dilation (n=2, q=1, P=128):")
_, Fm = random_bump_form(rng, 2, 2, 1, 64, sigma_range=(0.16, 0.2), spread=0.5)
_, Hm = random_bump_form(rng, 2, 2, 1, 64, sigma_range=(0.16, 0.2), spread=0.5)
for lam in (0.5, 1.0, 2.0):
    F = bump_form(2, 2, 1, dilate_form_specs(Fm, lam), 128)
    H = bump_form(2, 2, 1, dilate_form_specs(Hm, lam), 128)
    print(f"  lambda={lam:<4}  ratio={duality_ratio(F, H):.10f}")
print()

spec = spec_for(2, 2, 1, "diagonal")
print("second order gn ratio under dilation (q=0):")
_, um = random_bump_form(rng, 2, 2, 0, 64, sigma_range=(0.16, 0.2), spread=0.5)
for lam in (0.5, 1.0, 2.0):
    u = bump_form(2, 2, 0, dilate_form_specs(um, lam), 128)
    print(f"  lambda={lam:<4}  ratio={gn_ratio(spec, u):.8f}")
print()

first = spec_for(2, 1, 1)
u, _ = random_bump_form(rng, 2, 2, 0, 64, components=1)
ours = gn_ratio(first, u)
independent = classical_gn_ratio(u.coeffs[()].samples)
print("first order sanity against a plain-numpy rebuild:")
print(f"  library      {ours:.14f}")
print(f"  independent  {independent:.14f}")
print(f"  gap          {abs(ours - independent):.2e}")
print()

print("excluded degree guard (q = 1 with n = 2):")
v, _ = random_bump_form(rng, 2, 2, 1, 64)
try:
    gn_ratio(first, v)
except ValueError as err:
    print(f"  raised as designed: {err}")
w = make_coclosed_source(first, 1, rng, 64)
print(f"  with a coclosed input: ratio = {gn_ratio(first, w, assume='coclosed'):.6f}")
