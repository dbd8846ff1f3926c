"""Which degree increments admit a square label correspondence.

A source dictionary with m = C(n-1+k, k) derivative slots can only raise
form degree by ell when some embedding dimension N satisfies
C(N, ell) = m; every such N already obeys the dimension constraint
N >= n - 1 + ell, so no solution is ever rejected.  This script scans a
few (n, k) pairs and prints every solution, including the near miss at
(n, k) = (2, 29) where ell = 2 would need a triangular number equal to
30 and none exists.
"""

from divcurl import admissible_increments

for n, k in [(2, 2), (2, 9), (3, 3), (2, 29)]:
    admissible = admissible_increments(n, k)
    print(f"n={n} k={k}  (m = {admissible[0].m})")
    for sol in admissible:
        print(f"  ell={sol.ell:>2}  ->  N={sol.N}")
    print()

print("note: (2,29) admits only ell in {1, 29}.  C(8,2)=28 and C(9,2)=36")
print("bracket m=30, so no embedding dimension works for ell=2.")
