"""The benchmark workloads: fixed lists of checks, built from a seed.

A check calls public fltzlab functions and returns ``(got, expected)``.
The expected side is an oracle that avoids the code path under test: a
closed-form binomial, a path count, the other side of the
coherent/constructible correspondence, or an involution or Euler
relation.  Library objects are built inside the checks, so a pass over a
workload does all of the library's work; building the list itself only
draws the seeded inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from fltzlab.cohside import (
    costandard_stalk,
    cyclic_quiver_paths,
    euler_pairing_coherent,
    gamma_category,
    hom_graded,
    isotypic_component,
    pn_line_bundle_cohomology,
)
from fltzlab.conside import (
    CatRep,
    ChamberCategory,
    beilinson_generators,
    beilinson_rep,
    euler_form,
    reduce_dimension_vector,
    rep_hom,
)
from fltzlab.fans import (
    Cone,
    StackyFan,
    cech_nerve,
    dual_cone,
    faces,
    fan_from_json,
    fan_from_max_cones,
    fan_to_json,
    is_smooth_cone,
    standard_fan,
)
from fltzlab.picsym import Ikari, PicMonomial, monodromy
from fltzlab.skeleton import (
    chamber_quiver,
    chamber_step_counts,
    enumerate_chambers,
    fltz_components,
)
from fltzlab.zlin import IntMatrix, smith_normal_form


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[], tuple]  # returns (got, expected)


def _unit_vectors(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


# ---------------------------------------------------------------------------
# two_sided: constructible Ext against coherent cohomology


# Generator pairs left out because one alone exceeds a run: their bar
# complexes have 7,113 (End(gen 4)) and 3,496 (Hom(gen 4, gen 3)) cells.
_SLOW_PAIRS = {(3, 4, 4), (3, 4, 3)}


def _generator_pair(n, i, j):
    def run():
        cat = ChamberCategory(n)
        ext = rep_hom(beilinson_rep(n, i, cat), beilinson_rep(n, j, cat))
        h0 = pn_line_bundle_cohomology(n, j - i)[0]
        binom = comb(n + j - i, n) if n + j - i >= 0 else 0
        return (ext, h0), ([binom], binom)
    return Check(f"pair[n={n},gen{i}->gen{j}]", run)


def _simple_ext(n, k):
    def run():
        cat = ChamberCategory(n)

        def simple(v):
            return CatRep(cat, {w: int(w == v) for w in cat.objects}, {})

        return rep_hom(simple(k), simple(0)), [0] * k + [comb(n + 1, k)]
    return Check(f"simple[n={n},S{k}->S0]", run)


def _euler_gram(n):
    def run():
        cat = ChamberCategory(n)
        dims = [g.class_dims for g in beilinson_generators(n)]
        got = [[euler_form(cat, a, b) for b in dims] for a in dims]
        expected = [[euler_pairing_coherent(n, i, j) for j in range(n + 1)]
                    for i in range(n + 1)]
        return got, expected
    return Check(f"euler_gram[n={n}]", run)


def _reduction(n, index, d):
    def run():
        trace = reduce_dimension_vector(n, d)
        # generator k has rank C(n + k - 1 - s, n) at step s < k
        rebuilt = [sum(step.coefficient * comb(n + step.k - 1 - s, n)
                       for step in trace if s < step.k)
                   for s in range(n + 1)]
        return ((len(trace), trace[-1].remainder, rebuilt),
                (n + 1, (0,) * (n + 1), list(d)))
    return Check(f"reduce[n={n},#{index}]", run)


def two_sided(rng):
    checks = []
    for n in (1, 2, 3):
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if (n, i, j) not in _SLOW_PAIRS:
                    checks.append(_generator_pair(n, i, j))
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            if (n, k) != (4, 4):  # Ext(S4, S0) at n = 4 exceeds a run
                checks.append(_simple_ext(n, k))
    for n in (1, 2, 3, 4):
        checks.append(_euler_gram(n))
    for n in (1, 2, 3, 4):
        for index in range(100):
            d = [rng.randint(-5, 5) for _ in range(n + 1)]
            checks.append(_reduction(n, index, d))
    return checks


# ---------------------------------------------------------------------------
# fan_geometry: cones, fans, nerves, SNF and chambers


def _pn_fan(n):
    def run():
        f = standard_fan("Pn", n)
        maxc = f.maximal_cones()
        text = fan_to_json(f)
        back = fan_from_json(text)
        got = (len(f), len(maxc), all(is_smooth_cone(c) for c in maxc),
               cech_nerve(f).count_by_dim(), back == f, fan_to_json(back),
               len(fltz_components(f)))
        expected = (2 ** (n + 1) - 1, n + 1, True,
                    {k: comb(n + 1, k + 1) for k in range(n + 1)}, True, text,
                    2 ** (n + 1) - 1)
        return got, expected
    return Check(f"pn_fan[n={n}]", run)


def _random_cone(rank, index, gens):
    def run():
        c = Cone(gens, ambient_rank=rank)
        counts = {}
        for face in faces(c):
            counts[face.dim()] = counts.get(face.dim(), 0) + 1
        euler = sum((-1) ** d * k for d, k in counts.items())
        got = (dual_cone(dual_cone(c)) == c, euler, counts[0],
               counts.get(1, 0), counts[max(counts)])
        return got, (True, 0, 1, len(c.rays), 1)
    return Check(f"cone[rank={rank},#{index}]", run)


def _draw_cone_generators(rng, rank, count):
    # every generator lies in the open half-space x0 > 0, so each cone is
    # strictly convex and no draw is discarded
    return [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                         for _ in range(rank - 1))
            for _ in range(count)]


def _snf(index, A):
    def run():
        snf = smith_normal_form(A)
        diag = [d for d in snf.D.diagonal() if d != 0]
        got = ((snf.U @ A) @ snf.V == snf.D, snf.D.is_diagonal(),
               abs(snf.U.det()), abs(snf.V.det()),
               all(d > 0 for d in diag),
               all(b % a == 0 for a, b in zip(diag, diag[1:])))
        return got, (True, True, 1, 1, True, True)
    return Check(f"snf[#{index},{A.rows}x{A.cols}]", run)


def _chamber_counts(n):
    def run():
        got = []
        for eps in (None, Fraction(1, 4 * n + 4)):
            by_step = [0] * (n + 1)
            for c in enumerate_chambers(n, eps):
                by_step[c.step] += 1
            got.append(by_step)
        counts = chamber_step_counts(n)
        return got, [counts, counts]
    return Check(f"chambers[n={n}]", run)


def _twisted_labels(n):
    def run():
        q = chamber_quiver(n, [PicMonomial.generator(i, n) for i in range(n)])
        minus_id = Ikari(IntMatrix([[-x for x in row]
                                    for row in IntMatrix.identity(n).entries]))
        mono = monodromy(IntMatrix.identity(n), minus_id)
        got, expected = [], []
        for v in q.vertices:
            a, _ = v.region()
            # the canonical lift of a step class: L..L then `step` S flags
            canonical = [-1 if i >= n - v.step else 0 for i in range(n)]
            got.append(v.label)
            expected.append(mono.transport(
                tuple(x - y for x, y in zip(a, canonical))))
        return got, expected
    return Check(f"twisted_labels[n={n}]", run)


def fan_geometry(rng):
    checks = [_pn_fan(n) for n in (2, 3, 4)]
    for rank, count, n_gens in ((3, 40, 4), (4, 12, 5)):
        for index in range(count):
            gens = _draw_cone_generators(rng, rank, n_gens)
            checks.append(_random_cone(rank, index, gens))
    for index in range(500):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        checks.append(_snf(index, A))
    for n in range(1, 6):
        checks.append(_chamber_counts(n))
    for n in range(1, 5):
        checks.append(_twisted_labels(n))
    return checks


# ---------------------------------------------------------------------------
# lattice_hom: the coherent side on its own


def _cyclic_stack(n):
    return StackyFan(IntMatrix([[n]]),
                     fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))


def _cyclic_chart(n, bound=24):
    def run():
        G = gamma_category(_cyclic_stack(n))
        chars = G.group.characters()
        got = [[hom_graded(G, chars[i], chars[j], bound).dims
                for j in range(n)] for i in range(n)]
        expected = [[cyclic_quiver_paths(n, i, j, bound).dims
                     for j in range(n)] for i in range(n)]
        return got, expected
    return Check(f"cyclic[n={n}]", run)


def _stacky_chart(beta, bound, weight=None):
    def run():
        rank = len(beta)
        sf = StackyFan(IntMatrix(beta), fan_from_max_cones(
            [Cone(_unit_vectors(rank), ambient_rank=rank)]))
        G = gamma_category(sf)
        sigma = sf.fan.maximal_cones()[0]
        zero = G.group.zero_character()
        got, expected = [], []
        for rep in G.quotient.representatives:
            hom = hom_graded(G, zero, G.projection(rep), bound, weight)
            iso = isotypic_component(G.monoid, rep, bound, weight)
            stalk = costandard_stalk(sigma, rep, bound,
                                     denominator=G.monoid.denominator,
                                     weight=weight)
            got.append((hom.dims, iso.dims))
            expected.append((stalk.dims, stalk.dims))
        return got, expected
    return Check(f"stacky[beta={beta}]", run)


def _pn_cohomology(n, d):
    def run():
        expected = [0] * (n + 1)
        if d >= 0:
            expected[0] = comb(n + d, n)
        elif d <= -n - 1:
            expected[n] = comb(-d - 1, n)
        return list(pn_line_bundle_cohomology(n, d)), expected
    return Check(f"pn_cohomology[n={n},d={d}]", run)


def lattice_hom(rng):
    checks = [_cyclic_chart(n) for n in range(2, 13)]
    checks.append(_stacky_chart([[1, 1], [-1, 1]], 16, weight=(2, 0)))
    checks.append(_stacky_chart([[2, 1], [0, 3]], 16))
    checks.append(_stacky_chart([[3, 0], [0, 2]], 16))
    checks.append(_stacky_chart([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 8))
    for n in (2, 3):
        for d in range(-n - 4, 7):
            checks.append(_pn_cohomology(n, d))
    for d in (-8, -6, -5, -2, 0, 2, 4, 6):
        checks.append(_pn_cohomology(4, d))
    return checks


WORKLOADS = {
    "two_sided": two_sided,
    "fan_geometry": fan_geometry,
    "lattice_hom": lattice_hom,
}


def build(workload, seed):
    """The workload's checks for one seed, in a seeded order."""
    rng = random.Random(seed)
    checks = WORKLOADS[workload](rng)
    rng.shuffle(checks)
    return checks
