"""Closed top-below forms carry exactly the data of a divergence-free family.

At degree N - ell a hybrid form has one coefficient per complement of an
ordering label.  Contracting with the orientation signs turns a closed
form into scalar functions g_alpha with sum_alpha d^k g_alpha / dx^alpha
identically zero, and the lift inverts the reduction with all signs
intact.  Everything below is exact rational arithmetic.
"""

import random

from divcurl import (
    apply_T,
    divergence_defect,
    divergence_free_family,
    random_trig_form,
    spec_for,
    vs_lift,
    vs_reduction,
)

rng = random.Random(5)
spec = spec_for(2, 2, 1, "diagonal")
q = spec.N - spec.ell
print(f"spec n={spec.n} k={spec.k} ell={spec.ell} N={spec.N}; "
      f"reduction degree q = {q}")

phi = random_trig_form(rng, spec.n, spec.N, q - spec.ell, components=3)
F = apply_T(spec, phi)  # closed because the odd-step double raise vanishes
g = vs_reduction(spec, F)
print(f"reduced a closed {q}-form to {len(g)} scalar components")

defect = divergence_defect(g)
print(f"sum_alpha d^k g_alpha / dx^alpha == 0: "
      f"{defect is None or defect.is_zero()}")

back = vs_lift(spec, g)
print(f"lift inverts the reduction exactly: {(back - F).is_zero()}")
print()

fam = divergence_free_family(spec, rng)
print(f"random divergence-free family with {len(fam)} members:")
lifted = vs_lift(spec, fam)
print(f"  its lift is closed: {apply_T(spec, lifted).is_zero()}")
rek = vs_reduction(spec, lifted)
same = all((rek[a] - fam[a]).is_zero() for a in fam)
print(f"  and reduces back to the family: {same}")
