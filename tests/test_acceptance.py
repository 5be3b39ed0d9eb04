"""Acceptance suite: every criterion exact (tolerance zero), one line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
per-criterion pass lines).
"""

import random

from fltzlab import checks
from fltzlab.cohside import cyclic_quiver_paths, gamma_category, hom_graded
from fltzlab.conside import (
    CatRep,
    ChamberCategory,
    FinitePoset,
    beilinson_generators,
    corepresentable,
    euler_form,
    rep_hom,
)
from fltzlab.fans import Cone, StackyFan, dual_cone, fan_from_max_cones
from fltzlab.picsym import PicMonomial
from fltzlab.skeleton import chamber_quiver
from fltzlab.zlin import IntMatrix, smith_normal_form

SEED = 20240814


def _report(num, text, ok=True):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _expect(records, count):
    """Assert that a check family yields exactly ``count`` records, all ok."""
    records = list(records)
    assert len(records) == count, f"{len(records)} records, expected {count}"
    failed = [f"{r.name}: {r.detail}" for r in records if not r.ok]
    assert not failed, failed


def cyclic_stack(n):
    return StackyFan(IntMatrix([[n]]),
                     fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))


def test_criterion_1_stacky_cyclic_check():
    ok = True
    for n in range(2, 7):
        G = gamma_category(cyclic_stack(n))
        chars = G.group.characters()
        for i in range(n):
            for j in range(n):
                lhs = hom_graded(G, chars[i], chars[j], 12).dims
                rhs = cyclic_quiver_paths(n, i, j, 12).dims
                ok = ok and (lhs == rhs)
    _report(1, "graded homs on cyclic quotient charts equal cyclic-quiver "
               "path counts (n = 2..6, all pairs, bound 12)", ok)


def test_criterion_2_ccc_binomials():
    for n in (1, 2, 3, 4, 5):
        _expect(checks.pn_cohomology(n), 23)
    _report(2, "projective-space cohomology matches the binomial values and "
               "the Euler pairing matches the signed continuation (n = 1..5)")


def test_criterion_3_two_sided_match():
    for n in (1, 2, 3, 4):
        _expect(checks.two_sided(n), 1 + (n + 1) ** 2)
    _expect(checks.two_sided(5), 1)  # the Euler Gram record alone
    _, gram = checks.generator_gram(2, ChamberCategory(2))
    _report(3, "constructible rep homs (n = 1..4) and Euler Gram matrices "
               "(n = 1..5) equal the coherent ones (P2 rows (1,3,6),"
               "(0,1,3),(0,0,1))",
            gram == [[1, 3, 6], [0, 1, 3], [0, 0, 1]])


def test_criterion_4_chamber_counts():
    for n in (1, 2, 3, 4):
        _expect(checks.chambers(n), 3 if n == 2 else 2)
    # one surjectivity record, then Ext on every pair of the 2^n simples
    # and 2^n corepresentables
    for n, count in ((1, 1 + 4 ** 2), (2, 1 + 8 ** 2), (3, 1 + 16 ** 2),
                     (4, 1 + 32 ** 2)):
        _expect(checks.strata(n), count)
    _report(4, "geometric chamber enumeration equals the closed formula for "
               "n = 1..4, total 7 for n = 2, stable under two epsilons; the "
               "strata of the rank-n orthant chart collapse onto the arrow "
               "poset with the same Ext (n = 1..4)")


def test_criterion_5_kappa_verification():
    _expect(checks.kappa_coordinate(), 6)
    for n in range(1, 7):
        _expect(checks.kappa_cyclic(n), n)
    _report(5, "costandard stalks equal isotypic components degreewise "
               "(coordinate cones k <= n <= 3; cyclic charts n <= 6, all "
               "characters; bound 10)")


def test_criterion_6_twisted_labels():
    # seven label transports, the P2 multiset, path independence
    _expect(checks.monodromy(2), 9)
    q1 = chamber_quiver(1, [PicMonomial.generator(0, 1)])
    labels1 = sorted(v.label.exponents for v in q1.vertices)
    ok = labels1 == [(0,), (0,), (1,)]
    ok = ok and len(q1.edges) == 2
    ok = ok and all(q1.vertices[e.target].step == 0 for e in q1.edges)
    _report(6, "twisted chamber labels reproduce the figures (P2 multiset "
               "and the three-vertex line picture) and transport is path "
               "independent", ok)


def test_criterion_7_generation():
    ok = True
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        _expect(checks.generation(n, rng), 2)
        # the Gram again, from the generators' class dimensions
        cat = ChamberCategory(n)
        gens = beilinson_generators(n)
        gram = [[euler_form(cat, a.class_dims, b.class_dims)
                 for b in gens] for a in gens]
        ok = ok and all(gram[i][i] == 1 for i in range(n + 1))
        ok = ok and all(gram[i][j] == 0
                        for i in range(n + 1) for j in range(i))
    _report(7, "iterative cone reduction reaches zero within n+1 steps on "
               "100 seeded vectors (n = 1..3) and the generator Gram is "
               "unimodular triangular", ok)


def _small_posets():
    vee = FinitePoset.from_covers("clr", [("c", "l"), ("c", "r")])
    enn = FinitePoset.from_covers("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    return [
        FinitePoset.chain(1),
        FinitePoset.chain(3),
        FinitePoset.antichain(3),
        vee,
        enn,
        FinitePoset.chain(2).product(FinitePoset.chain(2)),
        FinitePoset.chain(3).product(FinitePoset.chain(3)),
    ]


def test_criterion_8_substrate_properties():
    ok = True
    rng = random.Random(SEED)
    for _ in range(500):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        snf = smith_normal_form(A)
        ok = ok and (snf.U @ A) @ snf.V == snf.D
        ok = ok and snf.U.is_unimodular() and snf.V.is_unimodular()
        diag = [d for d in snf.D.diagonal() if d != 0]
        ok = ok and all(d > 0 for d in diag)
        ok = ok and all(b % a == 0 for a, b in zip(diag, diag[1:]))

    done = 0
    while done < 200:
        rank = rng.choice((2, 3))
        gens = [tuple(rng.randint(-4, 4) for _ in range(rank))
                for _ in range(rng.randint(2, rank + 2))]
        cone = Cone(gens, ambient_rank=rank)
        if not (cone.is_strictly_convex() and cone.is_full_dimensional()):
            continue
        ok = ok and dual_cone(dual_cone(cone)) == cone
        done += 1

    for poset in _small_posets():
        reps = {v: corepresentable(poset, v) for v in poset.objects}
        for v in poset.objects:
            for w in poset.objects:
                ext = rep_hom(reps[v], reps[w])
                ok = ok and ext[0] == reps[w].dims[v]
                ok = ok and all(x == 0 for x in ext[1:])
                alt = sum((-1) ** i * x for i, x in enumerate(ext))
                ok = ok and alt == euler_form(poset, reps[v].dim_vector(),
                                              reps[w].dim_vector())
        # the Euler form also matches on simple representations
        for v in poset.objects:
            sv = CatRep(poset, {w: int(w == v) for w in poset.objects}, {})
            for w in poset.objects:
                sw = CatRep(poset, {u: int(u == w) for u in poset.objects}, {})
                ext = rep_hom(sv, sw)
                alt = sum((-1) ** i * x for i, x in enumerate(ext))
                ok = ok and alt == euler_form(poset, sv.dim_vector(),
                                              sw.dim_vector())
    _report(8, "500 seeded SNF property checks, 200 dual-cone involutions, "
               "and exhaustive Yoneda/Euler consistency on small posets", ok)
