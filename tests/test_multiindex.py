"""Combinatorial layer: enumumerations, permutation signs, orderings."""

import itertools
import json
import random

import pytest

from divcurl.multiindex import (
    Ordering,
    complement,
    labels,
    make_ordering,
    multiindices,
    perm_sign_between,
    random_ordering,
)


def pascal(a, b):
    """Independent binomial oracle via the additive recurrence."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def brute_sign(src, dst):
    """Permutation sign by explicitly searching the permutation taking src
    to dst and counting transpositions, the slow but obvious way."""
    if sorted(src) != sorted(dst) or len(set(src)) != len(src):
        return 0
    n = len(src)
    for perm in itertools.permutations(range(n)):
        if tuple(src[p] for p in perm) == tuple(dst):
            # count inversions of the permutation itself
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            return -1 if inv % 2 else 1
    return 0


def test_multiindex_count_and_content():
    for n in range(2, 5):
        for k in range(1, 5):
            mis = multiindices(n, k)
            assert len(mis) == pascal(n - 1 + k, k)
            assert len(set(mis)) == len(mis)
            for a in mis:
                assert len(a) == n and sum(a) == k and min(a) >= 0


def test_multiindex_order_is_graded_reverse():
    assert list(multiindices(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(multiindices(3, 2)) == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                                        (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for n, k in [(2, 3), (3, 2), (4, 2)]:
        mis = list(multiindices(n, k))
        assert mis == sorted(mis, key=lambda a: a[::-1])


def test_labels_match_combinations():
    for N in range(1, 7):
        for q in range(0, N + 1):
            assert list(labels(N, q)) == list(
                itertools.combinations(range(1, N + 1), q))
    assert list(labels(3, 0)) == [()]
    assert list(labels(3, 2)) == [(1, 2), (1, 3), (2, 3)]


def test_perm_sign_against_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        src = tuple(rng.sample(range(1, 9), n))
        dst = tuple(rng.sample(src, n))
        assert perm_sign_between(src, dst) == brute_sign(src, dst)


def test_perm_sign_degenerate_inputs():
    assert perm_sign_between((1, 1, 2), (1, 2, 1)) == 0  # repeats
    assert perm_sign_between((1, 2), (1, 3)) == 0        # content mismatch
    assert perm_sign_between((), ()) == 1
    assert perm_sign_between((4,), (4,)) == 1
    assert perm_sign_between((2, 1), (1, 2)) == -1


def inversion_sign(src, dst):
    """Reference sign: 0 unless dst rearranges the distinct entries of
    src, else the parity of the inversions of src's positions in dst."""
    if (len(src) != len(dst) or len(set(src)) != len(src)
            or sorted(src) != sorted(dst)):
        return 0
    image = [dst.index(v) for v in src]
    inv = sum(image[i] > image[j] for i in range(len(image))
              for j in range(i + 1, len(image)))
    return -1 if inv % 2 else 1


@pytest.mark.parametrize("m", range(7))
def test_perm_sign_on_every_permutation(m):
    values = tuple(random.Random(m).sample(range(-3, 12), m))
    for perm in itertools.permutations(values):
        assert perm_sign_between(values, perm) == inversion_sign(values, perm)
        assert perm_sign_between(perm, values) == inversion_sign(perm, values)
        assert perm_sign_between(perm, sorted(values)) == \
            inversion_sign(perm, sorted(values))


def test_perm_sign_repeats_and_mismatches():
    """Every pair of tuples over {1..4} of length <= 3: repeats in either
    tuple, set mismatches and length mismatches all give 0."""
    tuples = [t for m in range(4)
              for t in itertools.product(range(1, 5), repeat=m)]
    zeros = 0
    for src in tuples:
        for dst in tuples:
            sign = perm_sign_between(src, dst)
            assert sign == inversion_sign(src, dst), (src, dst)
            zeros += sign == 0
    assert zeros > len(tuples) ** 2 // 2
    assert perm_sign_between((1, 2), (2, 1, 3)) == 0
    assert perm_sign_between((1, 2, 3), (1, 2)) == 0


def test_epsilon_antisymmetry_and_examples():
    # epsilon^{prefix body}_target = perm_sign_between(prefix + body, target)
    assert perm_sign_between((1,) + (2, 3), (1, 2, 3)) == 1
    assert perm_sign_between((2,) + (1, 3), (1, 2, 3)) == -1
    assert perm_sign_between((3,) + (1, 2), (1, 2, 3)) == 1
    assert perm_sign_between((1,) + (1, 2), (1, 1, 2)) == 0
    rng = random.Random(1)
    for _ in range(60):
        body = tuple(rng.sample(range(1, 8), rng.randint(0, 3)))
        rest = [t for t in range(1, 8) if t not in body]
        pre = tuple(rng.sample(rest, min(2, len(rest))))
        if len(pre) < 2:
            continue
        tgt = tuple(sorted(pre + body))
        swapped = (pre[1], pre[0])
        assert (perm_sign_between(pre + body, tgt)
                == -perm_sign_between(swapped + body, tgt))


def test_complement_examples_and_sign_law():
    comp, sign = complement((3,), 3)
    assert comp == (1, 2) and sign == perm_sign_between((1, 2, 3), (1, 2, 3))
    comp, sign = complement((2,), 2)
    assert comp == (1,) and sign == perm_sign_between((1, 2), (1, 2)) == 1
    for N in range(1, 7):
        for q in range(0, N + 1):
            for lab in labels(N, q):
                comp, sign = complement(lab, N)
                assert tuple(sorted(comp + lab)) == tuple(range(1, N + 1))
                assert sign == perm_sign_between(comp + lab,
                                                 tuple(range(1, N + 1)))
                assert sign in (-1, 1)


def test_ordering_canonical_kinds():
    o = make_ordering(2, 2, 1, 3, kind="diagonal")
    assert o.label_of((2, 0)) == (1,)
    assert o.label_of((0, 2)) == (2,)
    assert o.label_of((1, 1)) == (3,)
    o1 = make_ordering(3, 1, 1, 3, kind="diagonal")
    for j in range(3):
        e = [0, 0, 0]
        e[j] = 1
        assert o1.label_of(tuple(e)) == (j + 1,)
    oc = make_ordering(2, 3, 1, 4, kind="chained")
    assert oc.label_of((3, 0)) == (1,)
    assert oc.label_of((1, 2)) == (2,)
    # remaining multi-indices get labels outside the source range {1, 2}
    for alpha in [(2, 1), (0, 3)]:
        assert oc.label_of(alpha)[0] > 2


def test_ordering_roundtrip_and_digest():
    o = make_ordering(2, 2, 2, 3, kind="lexicographic")
    images = [o.label_of(alpha) for alpha in multiindices(2, 2)]
    assert sorted(images) == list(labels(3, 2))
    for alpha in multiindices(2, 2):
        assert o.label_of(alpha + (0,)) == o.label_of(alpha)
    o2 = make_ordering(2, 2, 2, 3, kind="lexicographic")
    assert o2 == o
    assert o2.digest() == o.digest()
    assert len(o.digest()) == 16
    assert json.loads(o.to_json())["pairs"]


def test_ordering_validation_rejects_bad_tables():
    mis = list(multiindices(2, 2))
    labs = list(labels(3, 1))
    # two multi-indices sent to the same label
    bad = [(mis[0] + (0,), labs[0]), (mis[1] + (0,), labs[0]),
           (mis[2] + (0,), labs[1])]
    with pytest.raises(ValueError, match="not a bijection onto the labels"):
        Ordering(2, 2, 1, 3, bad)
    # a table of length-n multi-indices: keys must be embedded to length N
    short = [(a, lab) for a, lab in zip(mis, labs)]
    with pytest.raises(ValueError, match="embedded to length N = 3"):
        Ordering(2, 2, 1, 3, short)
    padded = Ordering(2, 2, 1, 3, [(a + (0,), lab) for a, lab in short])
    assert padded.label_of(mis[0]) == labs[0]
    with pytest.raises(ValueError):
        make_ordering(2, 2, 1, 4, kind="lexicographic")  # C(4,1) != 3
    with pytest.raises(ValueError):
        make_ordering(2, 2, 2, 3, kind="diagonal")  # diagonal needs ell = 1
    with pytest.raises(ValueError):
        make_ordering(2, 1, 1, 2, kind="chained")  # chained needs k >= 2


def test_random_ordering_determinism_and_bijection():
    a = random_ordering(3, 2, 2, 4, random.Random(9))
    b = random_ordering(3, 2, 2, 4, random.Random(9))
    c = random_ordering(3, 2, 2, 4, random.Random(10))
    assert a == b
    assert a.digest() == b.digest()
    assert a != c
    images = [a.label_of(alpha) for alpha in multiindices(3, 2)]
    assert len(set(images)) == len(images)
    assert set(images) <= set(labels(4, 2))
