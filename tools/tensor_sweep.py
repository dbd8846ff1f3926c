"""Check that the summation and closed-form Laplacian tensors agree over
every admissible spec with n <= 5, k <= 5 and N <= 11, canonical plus two
seeded random orderings: summation == closed form at every degree, on
the hybrid and (n >= ell) the source space; for n < ell both routes raise
the same error on the source space.  Run from the repository root:

    PYTHONPATH=src python tools/tensor_sweep.py
"""

import itertools
import random
import time

from divcurl.increments import admissible_increments
from divcurl.multiindex import random_ordering
from divcurl.operators import (OperatorSpec, box_coeff_closed_form,
                               box_coeff_tensor, spec_for)


def main():
    start = time.perf_counter()
    specs = []
    for n, k in itertools.product(range(2, 6), range(1, 6)):
        for sol in admissible_increments(n, k):
            if sol.N <= 11:
                rng = random.Random(f"{n},{k},{sol.ell}")
                specs.append(spec_for(n, k, sol.ell))
                specs += [OperatorSpec(n, k, sol.ell, sol.N, random_ordering(
                    n, k, sol.ell, sol.N, rng)) for _ in range(2)]
    assert len(specs) == 102, len(specs)
    checked = trivial = 0
    for spec in specs:
        if spec.n < spec.ell:
            errors = []
            for built in (box_coeff_tensor, box_coeff_closed_form):
                try:
                    built(spec, 0, True)
                except ValueError as e:
                    errors.append(str(e))
            if errors != ["source operator is trivial for n < ell"] * 2:
                raise SystemExit(f"{spec.describe()}: source routes "
                                 f"raise {errors}")
            trivial += 1
        for top in [False] + [True] * (spec.n >= spec.ell):
            for q in range((spec.n if top else spec.N) + 1):
                closed = box_coeff_closed_form(spec, q, top)
                if box_coeff_tensor(spec, q, top).entries != closed.entries:
                    raise SystemExit(f"{spec.describe()} q={q} source={top}: "
                                     "summation and closed form differ")
                checked += 1
        for built in (box_coeff_tensor, box_coeff_closed_form):
            built.cache_clear()  # one spec's tensors held at a time
    print(f"{checked} tensors of {len(specs)} specs agree, {trivial} "
          f"n < ell specs raise alike on the source space "
          f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
