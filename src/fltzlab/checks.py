"""The check registry: both sides of the correspondence, compared exactly.

Each family is a generator of :class:`Check` records, one per
comparison, in a fixed order.  ``fltzlab verify`` prints the records and
the acceptance tests assert them, so every check lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from . import cohside, conside, fans, picsym, skeleton
from .zlin import IntMatrix


@dataclass(frozen=True)
class Check:
    """One comparison: what was compared, whether it held, and the values."""

    name: str
    ok: bool
    detail: str = ""


def _binomial_continuation(n, e):
    """C(n + e, n) continued to every integer e: (e + 1)...(e + n) / n!."""
    return prod(range(e + 1, e + n + 1)) // factorial(n)


def generator_gram(n, cat):
    """The Beilinson generators of ``cat`` and their Euler Gram matrix."""
    gens = [conside.beilinson_rep(n, k, cat) for k in range(1, n + 2)]
    gram = [[conside.euler_form(cat, a.dim_vector(), b.dim_vector())
             for b in gens] for a in gens]
    return gens, gram


def pn_cohomology(n):
    """Line-bundle cohomology of Pn against binomials; the Euler pairing."""
    for e in range(0, 5):
        coh = cohside.pn_line_bundle_cohomology(n, e)
        yield Check(f"P{n} H0(O({e})) = C({n + e},{n})",
                    coh[0] == comb(n + e, n), f"{coh}")
        yield Check(f"P{n} middle cohomology of O({e}) vanishes",
                    all(x == 0 for x in coh[1:]), f"{coh}")
    for d in range(-n - 1, -n - 5, -1):
        coh = cohside.pn_line_bundle_cohomology(n, d)
        yield Check(f"P{n} Hn(O({d})) = C({-d - 1},{n})",
                    coh[n] == comb(-d - 1, n) and
                    all(x == 0 for x in coh[:n]), f"{coh}")
    for e in range(-4, 5):
        expected = _binomial_continuation(n, e)
        got = cohside.euler_pairing_coherent(n, 0, e)
        yield Check(f"P{n} euler pairing O -> O({e}) = {expected}",
                    got == expected, f"got {got}")


def two_sided(n):
    """Chamber-category generators against O, O(1), ..., O(n) on Pn.

    The Euler Gram matrices are compared for every n >= 1; the full
    graded rep homs only for n <= 4, where the bar complex stays small
    (the n = 4 family takes about a second).
    """
    cat = conside.ChamberCategory(n)
    gens, gram = generator_gram(n, cat)
    coh_gram = [[cohside.euler_pairing_coherent(n, i, j)
                 for j in range(n + 1)] for i in range(n + 1)]
    yield Check(f"P{n} euler Gram matches coherent Gram",
                gram == coh_gram, f"{gram} vs {coh_gram}")
    if n > 4:
        return
    for i in range(n + 1):
        for j in range(n + 1):
            ext = conside.rep_hom(gens[i], gens[j])
            coh = cohside.pn_line_bundle_cohomology(n, j - i)
            yield Check(
                f"P{n} rep hom gen{i + 1} -> gen{j + 1} = coherent H0",
                ext[0] == coh[0] and all(x == 0 for x in ext[1:]),
                f"{ext} vs {coh}")


def chambers(n):
    """Geometric chamber counts against the closed formula, epsilon-stable."""
    found = skeleton.enumerate_chambers(n)
    counts = skeleton.chamber_step_counts(n)
    by_step = [0] * (n + 1)
    for c in found:
        by_step[c.step] += 1
    yield Check(f"n={n} geometric counts match the closed formula",
                by_step == counts, f"{by_step} vs {counts}")
    eps2 = Fraction(1, 4 * n + 4)
    yield Check(f"n={n} chamber set is stable under a finer epsilon",
                skeleton.enumerate_chambers(n, eps2) == found)
    if n == 2:
        yield Check("n=2 total chamber count is 7", len(found) == 7)


def _pull_back(rep, strata, collapse):
    """The representation of the strata poset that factors through collapse."""
    dims = {e: rep.dims[collapse[e]] for e in strata.elements}
    maps = {}
    for (x, y) in strata.covers():
        a, b = collapse[x], collapse[y]
        if a == b:
            maps[(x, y)] = [{i: 1} for i in range(dims[x])]
        else:
            maps[(x, y)] = rep.matrices[(a, b)]
    return conside.CatRep(strata, dims, maps)


def strata(n):
    """Ext over the strata of the rank-n orthant chart against its collapse.

    The collapse onto the arrow poset has the left adjoint 0 -> c,
    1 -> r, and the collapse after it is the identity, so pulling back
    along the collapse is fully faithful on the derived category.  Ext
    is compared on the simples and the corepresentables for n <= 4;
    larger n yields no records.
    """
    if n > 4:
        return
    orthant = fans.Cone([tuple(int(i == j) for j in range(n))
                         for i in range(n)])
    poset, arrows, collapse = conside.strata_poset_affine(orthant)
    yield Check(f"n={n} collapse maps the {len(poset)} strata onto the "
                f"{len(arrows)} arrow-poset objects",
                set(collapse.values()) == set(arrows.elements))
    reps = {f"S{''.join(map(str, v))}": conside.CatRep(arrows, {v: 1}, {})
            for v in arrows.objects}
    reps.update({f"P{''.join(map(str, v))}": conside.corepresentable(arrows, v)
                 for v in arrows.objects})
    pulled = {name: _pull_back(M, poset, collapse)
              for name, M in reps.items()}
    for a, b in product(reps, repeat=2):
        ext = conside.rep_hom(reps[a], reps[b])
        ext_strata = conside.rep_hom(pulled[a], pulled[b])
        yield Check(f"n={n} Ext({a}, {b}) over the strata equals Ext over "
                    "the arrow poset", ext_strata == ext,
                    f"{ext_strata} vs {ext}")


def kappa_cyclic(n):
    """Costandard stalks against isotypic components on the order-n chart."""
    stack = fans.StackyFan(
        IntMatrix([[n]]),
        fans.fan_from_max_cones([fans.Cone([(1,)], ambient_rank=1)]))
    G = cohside.gamma_category(stack)
    ray = fans.Cone([(1,)], ambient_rank=1)
    for i in range(n):
        chi = (Fraction(i, n),)
        iso = cohside.isotypic_component(G.monoid, chi, 10)
        stalk = cohside.costandard_stalk(ray, chi, 10, denominator=n)
        yield Check(f"kappa on the order-{n} cyclic chart, character {i}",
                    iso.dims == stalk.dims, f"{iso.dims} vs {stalk.dims}")


def kappa_coordinate():
    """The same comparison on the cones cone(e1..ek) in Z^m, m <= 3."""
    for m in range(1, 4):
        for k in range(1, m + 1):
            cone = fans.Cone([tuple(int(i == j) for j in range(m))
                              for i in range(k)], ambient_rank=m)
            monoid = cohside.AffineMonoid(
                k, [tuple(int(i == j) for j in range(k)) for i in range(k)])
            iso = cohside.isotypic_component(monoid, (0,) * k, 10)
            stalk = cohside.costandard_stalk(cone, (0,) * m, 10)
            yield Check(f"kappa on cone(e1..e{k}) in Z^{m}",
                        iso.dims == stalk.dims,
                        f"{iso.dims} vs {stalk.dims}")


def monodromy(n):
    """Twisted chamber labels against monodromy transport."""
    pic = [picsym.PicMonomial.generator(i, n) for i in range(n)]
    q = skeleton.chamber_quiver(n, pic)
    mono = picsym.monodromy(
        IntMatrix.identity(n),
        picsym.Ikari(IntMatrix([[-x for x in row]
                                for row in IntMatrix.identity(n).entries])))
    for v in q.vertices:
        a, _ = v.region()
        disp = tuple(x - y for x, y in
                     zip(a, skeleton._canonical_avec(n, v.step)))
        yield Check(
            f"label of {v.chamber.flag_string()},{v.chamber.slant} matches "
            "monodromy transport",
            v.label == mono.transport(disp))
    if n == 2:
        expected = sorted([(0, 0), (1, 0), (0, 1),    # a, aL, aM
                           (0, 0), (0, 1), (-1, 1),   # b, bM, bL^-1M
                           (0, 0)])                   # c
        got = sorted(v.label.exponents for v in q.vertices)
        yield Check("n=2 twisted label multiset matches the comparison "
                    "picture", got == expected, f"{got}")
    # column j of the monodromy matrix is the exponent vector picked up
    # around loop j, so going around the loops one at a time, v_j times
    # around loop j, adds up v_j times column j; that sum is built here
    # entry by entry, without the matrix product behind transport
    loops = list(zip(*mono.matrix.entries))
    start = (0,) * mono.matrix.rows

    def around_loops(v):
        total = start
        for times, loop in zip(v, loops):
            total = tuple(t + times * e for t, e in zip(total, loop))
        return total

    homomorphic = all(mono.transport(v).exponents == around_loops(v)
                      for v in product(range(-4, 5), repeat=n))
    yield Check(f"transport on {{-4..4}}^{n} equals the loop-by-loop "
                "column sum", homomorphic)


def generation(n, rng):
    """Cone reduction of 100 vectors drawn from ``rng``; generator Gram shape.

    Draws exactly 100 * (n + 1) integers from ``rng``, so callers that
    share one generator across several n see a fixed sequence.
    """
    failures = 0
    for _ in range(100):
        d = [rng.randint(-5, 5) for _ in range(n + 1)]
        try:
            trace = conside.reduce_dimension_vector(n, d)
            good = (len(trace) == n + 1 and
                    trace[-1].remainder == (0,) * (n + 1))
        except conside.GenerationFailure:
            good = False
        if not good:
            failures += 1
    yield Check(f"100 seeded random reductions reach zero in {n + 1} steps",
                failures == 0, f"{failures} failures")
    _, gram = generator_gram(n, conside.ChamberCategory(n))
    tri = all(gram[i][j] == 0 for i in range(n + 1) for j in range(i))
    uni = all(gram[i][i] == 1 for i in range(n + 1))
    yield Check(f"n={n} generator Gram is unimodular triangular",
                tri and uni, f"{gram}")
