import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from operator import mul

import pytest

from fltzlab.cohside import (
    AffineMonoid,
    CohError,
    GammaCategory,
    GradedDims,
    ImproperWeightError,
    IncompatibleCharacterError,
    TruncationError,
    _adapted_quotient,
    _pattern_cohomology,
    _ranges,
    costandard_stalk,
    cyclic_quiver_paths,
    euler_pairing_coherent,
    gamma_category,
    hom_graded,
    isotypic_component,
    pn_line_bundle_cohomology,
)
from fltzlab import cohside, fans, zlin
from fltzlab.fans import (
    Cone,
    StackyFan,
    dd_generators,
    fan_from_max_cones,
    standard_fan,
    validate_stacky,
)
from fltzlab.skeleton import SkeletonError, character_lattice_quotient
from fltzlab.zlin import (
    Character,
    FiniteAbelianGroup,
    IntMatrix,
    LatticeQuotient,
    ZlinError,
    rational_inverse,
    smith_normal_form,
)


def cyclic_stack(n):
    return StackyFan(IntMatrix([[n]]),
                     fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))


def unit_cone(k, n):
    return Cone([tuple(int(i == j) for j in range(n)) for i in range(k)],
                ambient_rank=n)


def reference_pn_line_bundle_cohomology(n, ds, box_bound):
    """The full-box Cech loop for O(d) on P^n, for each d in ``ds`` at
    one box bound: every character of the box, one by one, read once
    for all the d.

    The divisor has multiplicity 0 on the n unit rays and d on the last
    ray, so a character's missing set is the same for every d but for
    the last ray.  Returns a dict from each d to its totals, or to the
    :class:`TruncationError` the loop raises for that d alone.
    """
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    out, totals = {}, {}
    for d in ds:
        if box_bound < abs(d):
            out[d] = TruncationError(
                f"box bound {box_bound} is smaller than |d| = {abs(d)}; "
                "contributing characters would be cut off")
        else:
            totals[d] = [0] * (n + 1)
    for m in product(range(-box_bound, box_bound + 1), repeat=n):
        *units, last = [sum(map(mul, ray, m)) for ray in rays]
        kept = frozenset(i for i, a in enumerate(units) if a < 0)
        lost = kept | {n}
        on_boundary = max(map(abs, m)) == box_bound
        for d, sums in totals.items():
            if d in out:
                continue
            contrib = _pattern_cohomology(n, lost if last < -d else kept)
            if not any(contrib):
                continue
            if on_boundary:
                out[d] = TruncationError(
                    f"character {m} on the box boundary contributes; "
                    "enlarge box_bound")
            else:
                for i, x in enumerate(contrib):
                    sums[i] += x
    for d, sums in totals.items():
        out.setdefault(d, tuple(sums))
    return out


def reference_box(monoid, bound, weight):
    """Ranges of y = d x that bound x (not y) by the rays and the bound.

    A superset of the elements of degree <= bound, since the degree is
    weight . y; ``elements_by_degree`` bounds y itself.
    """
    los = [0] * monoid.rank
    his = [0] * monoid.rank
    for r in monoid._cone_rays:
        w = sum(a * b for a, b in zip(weight, r))
        for i in range(monoid.rank):
            ratio = Fraction(bound * r[i], w)
            if ratio < los[i]:
                los[i] = ratio.__floor__()
            if ratio > his[i]:
                his[i] = ratio.__ceil__()
    d = monoid.denominator
    return [range(lo * d, hi * d + 1) for lo, hi in zip(los, his)]


def reference_elements_by_degree(monoid, bound, weight=None):
    """The box loop with a Fraction point and ``contains`` for every y."""
    weight = tuple(weight) if weight is not None else monoid.default_weight()
    if not monoid.weight_is_proper(weight):
        raise ImproperWeightError("improper weight")
    out = {d: [] for d in range(bound + 1)}
    for ycoords in product(*reference_box(monoid, bound, weight)):
        point = tuple(Fraction(y, monoid.denominator) for y in ycoords)
        deg = sum(w * y for w, y in zip(weight, ycoords))
        if 0 <= deg <= bound and monoid.contains(point):
            out[deg].append(point)
    return out


def scaled_lattice(rank, d):
    """The quotient of (1/d) Z^rank by Z^rank."""
    return LatticeQuotient([[Fraction(int(i == j), d) for i in range(rank)]
                            for j in range(rank)])


def random_monoid(rng):
    """A monoid of rank 1-3 with int or Fraction rows on (1/d) Z^rank or
    on the superlattice of a random beta.

    Every row is nonnegative on a random vector v, so v lies in the cone;
    the cone is pointed when the rows span, and otherwise no weight is
    proper.
    """
    rank = rng.randint(1, 3)
    v = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rank)]
    rows = []
    for _ in range(rng.randint(1, rank + 2)):
        row = [rng.randint(-3, 3) for _ in range(rank)]
        if sum(a * x for a, x in zip(row, v)) < 0:
            row = [-a for a in row]
        if rng.random() < 0.3:
            row = [Fraction(x, rng.randint(1, 4)) for x in row]
        rows.append(tuple(row))
    lattice = scaled_lattice(rank, rng.randint(1, 4))
    if rng.random() < 0.5:
        beta = [[rng.randint(-2, 3) for _ in range(rank)] for _ in range(rank)]
        try:
            quotient = character_lattice_quotient(IntMatrix(beta))
        except SkeletonError:  # singular beta
            quotient = None
        if quotient and quotient.denominator <= 4 and rng.random() < 0.5:
            lattice = quotient
    return AffineMonoid(rank, rows, lattice=lattice)


def reference_cyclic_quiver_paths(n, i, j, length_bound):
    """The state-vector walk: shift a length-n indicator at every step."""
    counts = []
    state = [0] * n
    state[i] = 1
    for _ in range(length_bound + 1):
        counts.append(state[j])
        state = [state[(v - 1) % n] for v in range(n)]
    return tuple(counts)


def reference_representative(quotient, chi):
    """The Fraction sum the representative table replaced: chi's
    components times the adapted basis columns of their summands.

    The adapted basis is S U^-1, for the superlattice basis S and the
    Smith form U S^-1 V = D of the coordinates of Z^n in it.
    """
    sup = quotient.superlattice_basis
    n = len(sup)
    rows = [[col[i] for col in sup] for i in range(n)]
    snf = smith_normal_form(IntMatrix([[int(x) for x in row]
                                       for row in rational_inverse(rows)]))
    u_inv = rational_inverse(snf.U.entries)
    adapted = [[sum(rows[i][k] * u_inv[k][j] for k in range(n))
                for i in range(n)] for j in range(n)]
    comps = iter(chi.components)
    coords = [next(comps) if d > 1 else 0 for d in snf.D.diagonal()]
    return tuple(sum(c * a[i] for c, a in zip(coords, adapted))
                 for i in range(n))


def reference_hom_graded(G, chi, chi_prime, bound, weight=None):
    """The per-point route: project every monoid element to its character."""
    target = chi_prime - chi
    weight = tuple(weight) if weight is not None else G.monoid.default_weight()
    elements = G.monoid.elements_by_degree(bound, weight)
    dims = []
    for d in range(bound + 1):
        dims.append(sum(1 for p in elements[d]
                        if G.quotient.character_of(p) == target))
    return GradedDims(dims=tuple(dims), bound=bound, weight=weight)


def reference_costandard_stalk(c, chi, bound, denominator=1, weight=None):
    """The Fraction loop: every z of chi_q + Z^q, degree by Fraction sum."""
    chi = tuple(Fraction(x) for x in chi)
    for x in chi:
        if (x * denominator).denominator != 1:
            raise IncompatibleCharacterError("not a torsion point")
    q, project, ineqs_q, _, _ = _adapted_quotient(c)
    chi_q = tuple(sum(a * x for a, x in zip(row, chi)) for row in project)
    weight = tuple(weight) if weight is not None else (1,) * q
    dims = [0] * (bound + 1)
    if q == 0:
        dims[0] = 1
        return GradedDims(dims=tuple(dims), bound=bound, weight=weight)
    rays_q, _ = dd_generators(ineqs_q, q)
    for r in rays_q:
        if sum(w * x for w, x in zip(weight, r)) <= 0:
            raise ImproperWeightError("improper weight")
    los = [Fraction(0)] * q
    his = [Fraction(0)] * q
    for r in rays_q:
        w = sum(a * b for a, b in zip(weight, r))
        for i in range(q):
            ratio = Fraction(bound) * Fraction(r[i]) / (w * denominator)
            los[i] = min(los[i], ratio)
            his[i] = max(his[i], ratio)
    offsets = []
    for i in range(q):
        lo = (los[i] - chi_q[i]).__floor__() - 1
        hi = (his[i] - chi_q[i]).__ceil__() + 1
        offsets.append(range(lo, hi + 1))
    for zint in product(*offsets):
        z = tuple(cq + zi for cq, zi in zip(chi_q, zint))
        deg = sum(w * x for w, x in zip(weight, z)) * denominator
        assert deg.denominator == 1
        deg = int(deg)
        if not 0 <= deg <= bound:
            continue
        if all(sum(a * x for a, x in zip(ineq, z)) >= 0 for ineq in ineqs_q):
            dims[deg] += 1
    return GradedDims(dims=tuple(dims), bound=bound, weight=weight)


def random_strictly_convex_cone(rng):
    """A strictly convex cone of ambient rank n = 1-3 on 0..n+1 generators.

    Generators lie in the open half space of a random vector v, so the
    cone is strictly convex; with fewer generators than the rank it is
    not full-dimensional and its perp is nonzero.
    """
    n = rng.randint(1, 3)
    v = [rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(n)]
    count = rng.randint(0, n + 1)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(-2, 2) for _ in range(n))
        pairing = sum(a * b for a, b in zip(g, v))
        if pairing:
            gens.append(g if pairing > 0 else tuple(-x for x in g))
    return Cone(gens, ambient_rank=n)


def orthant_stack(beta):
    """The stacky chart of the orthant of Z^r under beta."""
    rank = len(beta)
    return StackyFan(IntMatrix(beta), fan_from_max_cones(
        [unit_cone(rank, rank)]))


# the four stacky charts of the lattice_hom benchmark
BENCH_CHARTS = [[[1, 1], [-1, 1]], [[2, 1], [0, 3]], [[3, 0], [0, 2]],
                [[2, 0, 0], [0, 2, 0], [0, 0, 1]]]


def random_betas(seed=20261018, count=40):
    """Seeded nonsingular beta of rank 1-3 with small entries and index."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.randint(1, 3)
        beta = [[rng.randint(-2, 3) for _ in range(rank)]
                for _ in range(rank)]
        if 1 <= abs(IntMatrix(beta).det()) <= 6:
            out.append(beta)
    return out


def non_default_weight(G, sf):
    """A proper weight other than all ones: the sum of the image rays.

    It lies in the interior of the image cone, so it is strictly
    positive on the monoid cone minus 0.
    """
    rays = sf.fan.maximal_cones()[0].rays
    weight = tuple(sum(col) for col in zip(*rays))
    if weight == G.monoid.default_weight():
        weight = tuple(2 * x for x in weight)
    assert G.monoid.weight_is_proper(weight)
    return weight


@lru_cache(maxsize=None)
def oracle_charts():
    """(G, sf, bound) for the cyclic charts n = 2..12, the benchmark charts
    and the seeded random ones; the bound per rank keeps the oracle under 1 s.
    """
    bounds = {1: 8, 2: 5, 3: 3}
    stacks = ([cyclic_stack(n) for n in range(2, 13)]
              + [orthant_stack(beta) for beta in BENCH_CHARTS + random_betas()])
    return tuple((gamma_category(sf), sf, bounds[sf.fan.rank])
                 for sf in stacks)


def orthant_monoid(k):
    return AffineMonoid(k, [tuple(int(i == j) for j in range(k))
                            for i in range(k)])


class TestGammaCategory:
    def test_cyclic_line(self):
        G = gamma_category(cyclic_stack(4))
        assert G.group.invariant_factors == (4,)
        assert G.monoid.denominator == 4
        assert G.monoid.contains((Fraction(3, 4),))
        assert not G.monoid.contains((Fraction(-1, 4),))
        assert not G.monoid.contains((Fraction(1, 3),))
        # the projection sends i/n to i
        for i in range(8):
            assert G.projection((Fraction(i, 4),)).components == (i % 4,)

    def test_trivial_stack(self):
        sf = StackyFan(IntMatrix([[1]]),
                       fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))
        G = gamma_category(sf)
        assert G.group.is_trivial
        assert G.monoid.denominator == 1
        assert G.monoid.contains((3,)) and not G.monoid.contains((-1,))

    def test_index_two_surface(self):
        sf = StackyFan(IntMatrix([[1, 1], [-1, 1]]),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]))
        G = gamma_category(sf)
        assert G.group.invariant_factors == (2,)
        # the monoid sits inside Z^2 union (Z+1/2)^2
        assert G.monoid.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not G.monoid.contains((Fraction(1, 2), Fraction(0)))
        assert G.projection((Fraction(1, 2), Fraction(1, 2))).components == (1,)
        assert G.projection((1, 0)).components == (0,)

    def test_parts_must_agree(self):
        # the quotient of (1/4)Z by Z with a monoid over Z used to key
        # every character to the coset of Z, so hom_graded read
        # (1, ..., 1) at bound 6 for all four characters
        q = scaled_lattice(1, 4)
        for monoid in (AffineMonoid(1, [(1,)]),
                       AffineMonoid(1, [(1,)], lattice=scaled_lattice(1, 4))):
            with pytest.raises(CohError, match="is not built on the "
                                               "quotient"):
                GammaCategory(group=q.group, monoid=monoid, quotient=q)
        with pytest.raises(CohError, match="None is not a LatticeQuotient"):
            GammaCategory(group=q.group, monoid=AffineMonoid(1, [(1,)]),
                          quotient=None)
        monoid = AffineMonoid(1, [(1,)], lattice=q)
        assert monoid.lattice is q
        with pytest.raises(CohError, match="is not the group of the "
                                           "quotient"):
            GammaCategory(group=FiniteAbelianGroup((4,)), monoid=monoid,
                          quotient=q)
        G = GammaCategory(group=q.group, monoid=monoid, quotient=q)
        zero = G.group.zero_character()
        got = [hom_graded(G, zero, chi, 6).dims
               for chi in G.group.characters()]
        assert got == [cyclic_quiver_paths(4, 0, j, 6).dims
                       for j in range(4)]

    def test_needs_full_dimensional_cone(self):
        from fltzlab.skeleton import UnsupportedConeError
        sf = StackyFan(IntMatrix.identity(2),
                       fan_from_max_cones([Cone([(1, 0)], ambient_rank=2)]))
        with pytest.raises(UnsupportedConeError):
            gamma_category(sf)

    def test_invalid_stacky_fan_rejected(self):
        # beta = 2 sends the ray (1) onto (1), which the given fan lacks
        sf = StackyFan(IntMatrix([[2]]),
                       fan_from_max_cones([Cone([(1,)], ambient_rank=1)]),
                       fan_from_max_cones([Cone([(-1,)], ambient_rank=1)]))
        assert not validate_stacky(sf)
        with pytest.raises(CohError, match="not a valid stacky fan"):
            gamma_category(sf)

    def test_needs_a_single_chart(self):
        from fltzlab.skeleton import UnsupportedConeError
        sf = StackyFan.nonstacky(standard_fan("Pn", 1))
        assert validate_stacky(sf)
        with pytest.raises(UnsupportedConeError, match="single affine chart"):
            gamma_category(sf)


class TestChartWork:
    """Each stacky chart runs only the double descriptions it needs."""

    @pytest.fixture
    def dd_calls(self, monkeypatch):
        calls = []

        def counting(inequalities, rank):
            calls.append(rank)
            return dd_generators(inequalities, rank)

        for module in (fans, cohside):
            monkeypatch.setattr(module, "dd_generators", counting)
        return calls

    def test_rank_three_bench_chart(self, dd_calls):
        # the orthant and its image are pointed, so each runs one double
        # description; validating runs none, and the monoid cone one
        sf = orthant_stack([[2, 0, 0], [0, 2, 0], [0, 0, 1]])
        assert len(dd_calls) == 2
        assert validate_stacky(sf)
        assert len(dd_calls) == 2
        gamma_category(sf)
        assert len(dd_calls) == 3

    def test_one_integer_inverse_per_chart(self, monkeypatch):
        # building the stacky fan takes none; the chart takes one for the
        # superlattice basis, reads its adapted basis off the Smith form,
        # and the monoid reads the quotient's
        calls = []
        int_inverse = zlin._int_inverse

        def counting(rows):
            calls.append(rows)
            return int_inverse(rows)

        for module in (zlin, cohside):
            monkeypatch.setattr(module, "_int_inverse", counting)
        for build, arg in ([(cyclic_stack, n) for n in (2, 3, 7)]
                           + [(orthant_stack, b) for b in BENCH_CHARTS]):
            calls.clear()
            sf = build(arg)
            assert len(calls) == 0
            gamma_category(sf)
            assert len(calls) == 1

    def test_nonstacky_builds_no_image(self, dd_calls):
        p3 = standard_fan("Pn", n=3)
        dd_calls.clear()
        StackyFan.nonstacky(p3)
        assert dd_calls == []


class TestGradedDims:
    def test_int_dims_kept(self):
        g = GradedDims(dims=[1, 2], bound=1, weight=(1,))
        assert g.dims == (1, 2) and g[1] == 2

    @pytest.mark.parametrize("dims, bound", [
        ((1.5, 2.7), 1), ((1, True), 1), ((Fraction(1), 2), 1),
        ((1, "2"), 1), ((1, 2), 1.0), ((1, 2), True)])
    def test_non_int_rejected(self, dims, bound):
        # (1.5, 2.7) once held (1, 2)
        with pytest.raises(CohError, match="is not an integer"):
            GradedDims(dims=dims, bound=bound, weight=(1,))

    @pytest.mark.parametrize("weight, message", [
        ("x", "weight 'x' is not a tuple"), ([1], r"weight \[1\] is not"),
        (None, "weight None is not"), ((1.0,), "weight entry 1.0"),
        ((True,), "weight entry True"), ((1, "2"), "weight entry '2'")])
    def test_weight_must_be_a_tuple_of_ints(self, weight, message):
        # weight='x' used to be accepted
        with pytest.raises(CohError, match=message):
            GradedDims(dims=(1,), bound=0, weight=weight)

    def test_negative_dimension_rejected(self):
        with pytest.raises(CohError, match="nonnegative"):
            GradedDims(dims=(1, -1), bound=1, weight=(1,))

    @pytest.mark.parametrize("dims", [(1, 2, 3), (1,), ()])
    def test_wrong_length_rejected(self, dims):
        with pytest.raises(CohError, match="dims length must be bound"):
            GradedDims(dims=dims, bound=1, weight=(1,))


class TestPrivateConstructors:
    """``GradedDims._of`` and ``Character._of`` skip the checks only for
    values built from checked inputs; the public constructors keep them
    (see :class:`TestGradedDims` and ``test_zlin.TestCharacters``)."""

    def test_lattice_hom_values_equal_public_ones(self):
        # the cyclic charts n = 2..12 at bound 24 and the four stacky
        # charts with their bounds and weights, as the benchmark runs them
        dims, chars = [], []
        charts = [(cyclic_stack(n), 24, None) for n in range(2, 13)]
        charts += [(orthant_stack(beta), bound, weight)
                   for beta, bound, weight in zip(
                       BENCH_CHARTS, (16, 16, 16, 8), ((2, 0), None, None,
                                                       None))]
        for sf, bound, weight in charts:
            G = gamma_category(sf)
            sigma = sf.fan.maximal_cones()[0]
            cs = G.group.characters()
            chars += cs + [G.group.zero_character()]
            chars += [op(a, b) for a in cs for b in cs
                      for op in (Character.__add__, Character.__sub__)]
            chars += [-a for a in cs]
            dims += [hom_graded(G, a, b, bound, weight) for a in cs
                     for b in cs]
            for rep in G.quotient.representatives:
                chars.append(G.projection(rep))
                dims.append(isotypic_component(G.monoid, rep, bound, weight))
                dims.append(costandard_stalk(
                    sigma, rep, bound, denominator=G.monoid.denominator,
                    weight=weight))
            if sf.fan.rank == 1:
                n = len(cs)
                dims += [cyclic_quiver_paths(n, i, j, bound)
                         for i in range(n) for j in range(n)]
        assert (len(dims), len(chars)) == (1580, 1782)
        for g in dims:
            assert type(g.dims) is tuple
            assert g == GradedDims(dims=g.dims, bound=g.bound,
                                   weight=g.weight)
        for chi in chars:
            assert type(chi.components) is tuple
            assert chi == Character(chi.components, chi.group)


class TestHomGraded:
    def test_cyclic_shifted_cone(self):
        G = gamma_category(cyclic_stack(3))
        chars = G.group.characters()
        dims = hom_graded(G, chars[0], chars[1], 8)
        # monoid elements 1/3, 4/3, 7/3 at weights 1, 4, 7
        assert dims.dims == (0, 1, 0, 0, 1, 0, 0, 1, 0)

    def test_identity_in_degree_zero(self):
        G = gamma_category(cyclic_stack(5))
        for chi in G.group.characters():
            assert hom_graded(G, chi, chi, 0).dims == (1,)

    def test_orthant_total_degree(self):
        sf = StackyFan(IntMatrix.identity(2),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]))
        G = gamma_category(sf)
        chi = G.group.zero_character()
        dims = hom_graded(G, chi, chi, 3)
        assert dims.dims == (1, 2, 3, 4)

    def test_composition_closure(self):
        G = gamma_category(cyclic_stack(4))
        elements = G.monoid.elements_by_degree(6)
        pool = [p for pts in elements.values() for p in pts]
        for m1 in pool:
            for m2 in pool:
                s = tuple(a + b for a, b in zip(m1, m2))
                assert G.monoid.contains(s)
                assert (G.projection(s)
                        == G.projection(m1) + G.projection(m2))

    def test_improper_weight_raises(self):
        sf = StackyFan(IntMatrix([[1, 1], [-1, 1]]),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]))
        G = gamma_category(sf)
        chi = G.group.zero_character()
        with pytest.raises(ImproperWeightError):
            hom_graded(G, chi, chi, 3)


class TestHomGradedOracle:
    """hom_graded, one isotypic component, against the per-point route."""

    def test_every_character_pair(self):
        default_compared = 0
        for G, sf, bound in oracle_charts():
            chars = G.group.characters()
            weights = [non_default_weight(G, sf)]
            if G.monoid.weight_is_proper(G.monoid.default_weight()):
                weights.append(None)
                default_compared += 1
            zero = G.group.zero_character()
            for weight in weights:
                # the reference depends on chi' - chi alone: its first step
                expected = {t: reference_hom_graded(G, zero, t, bound, weight)
                            for t in chars}
                for chi in chars:
                    for chi_prime in chars:
                        assert (hom_graded(G, chi, chi_prime, bound, weight)
                                == expected[chi_prime - chi])
        assert default_compared >= 35

    def test_improper_default_weight_raises_both_ways(self):
        improper = 0
        for G, _, bound in oracle_charts():
            if G.monoid.weight_is_proper(G.monoid.default_weight()):
                continue
            improper += 1
            chi = G.group.zero_character()
            for route in (hom_graded, reference_hom_graded):
                with pytest.raises(ImproperWeightError):
                    route(G, chi, chi, bound)
        assert improper >= 1

    def test_representative_round_trip(self):
        for G, _, _ in oracle_charts():
            q = G.quotient
            for r in q.representatives:
                assert q.representative(q.character_of(r)) == r
            for chi in q.group.characters():
                assert q.character_of(q.representative(chi)) == chi

    def test_representative_table_matches_fraction_sum(self):
        for G, _, _ in oracle_charts():
            q = G.quotient
            chars = q.group.characters()
            expected = [reference_representative(q, chi) for chi in chars]
            assert q.representatives == expected
            assert [q.representative(chi) for chi in chars] == expected

    def test_character_of_another_group_rejected(self):
        G = gamma_category(cyclic_stack(3))
        other = Character((1,), FiniteAbelianGroup((7,)))
        with pytest.raises(ZlinError):
            G.quotient.representative(other)
        with pytest.raises(ZlinError):
            G.quotient.representative((1,))
        with pytest.raises(ZlinError):
            hom_graded(G, other, other, 3)

    def test_non_character_rejected(self):
        # a tuple used to raise a raw AttributeError as chi and a raw
        # TypeError as chi_prime
        G = gamma_category(cyclic_stack(4))
        chi = Character((1,), G.group)
        with pytest.raises(ZlinError, match=r"^chi \(1,\) is not a character"):
            hom_graded(G, (1,), chi, 4)
        with pytest.raises(ZlinError,
                           match=r"^chi_prime \(1,\) is not a character"):
            hom_graded(G, chi, (1,), 4)

    def test_character_of_an_equal_group_accepted(self):
        G = gamma_category(cyclic_stack(4))
        equal = FiniteAbelianGroup((4,))
        assert equal == G.group and equal is not G.group
        chars = G.group.characters()
        for i, j in ((0, 1), (3, 1)):
            assert (hom_graded(G, Character((i,), equal),
                               Character((j,), equal), 6)
                    is hom_graded(G, chars[i], chars[j], 6))

    def test_projection_checks_the_length(self):
        G = gamma_category(cyclic_stack(4))
        assert G.projection((Fraction(1, 4),)).components == (1,)
        with pytest.raises(ZlinError, match="has length 2, expected 1"):
            G.projection((Fraction(1, 4), 7))


class TestHomTable:
    """hom_graded reads the monoid's coset table through the chart's
    coset keys."""

    def test_filled_once_per_grading(self, monkeypatch):
        calls = []
        representative = LatticeQuotient.representative

        def counting(quotient, chi):
            calls.append(chi.components)
            return representative(quotient, chi)

        monkeypatch.setattr(LatticeQuotient, "representative", counting)
        for n in (2, 5, 7):
            calls.clear()
            G = gamma_category(cyclic_stack(n))
            chars = G.group.characters()
            # the keys are filled with the chart, from the quotient's
            # integer numerators: no Fraction representative is built
            keys = G._coset_keys
            assert keys == {(i,): (i,) for i in range(n)}
            # None and (1,) are one grading
            for bound, weight in ((6, None), (6, (1,)), (9, None), (6, (2,))):
                for chi in chars:
                    for chi_prime in chars:
                        hom_graded(G, chi, chi_prime, bound, weight)
            assert calls == [] and G._coset_keys is keys
            assert list(G.monoid._coset_tables) == [(6, (1,)), (9, (1,)),
                                                    (6, (2,))]

    def test_hom_is_the_kept_isotypic_component(self):
        compared = 0
        for G, sf, bound in oracle_charts():
            weight = non_default_weight(G, sf)
            chars = G.group.characters()
            for chi in chars:
                for chi_prime in chars:
                    rep = G.quotient.representative(chi_prime - chi)
                    assert (hom_graded(G, chi, chi_prime, bound, weight)
                            is isotypic_component(G.monoid, rep, bound,
                                                  weight))
                    compared += 1
        assert compared >= 500


class TestCosetTable:
    """isotypic_component reads one coset table per (bound, weight)."""

    def test_one_enumeration_per_grading(self, monkeypatch):
        calls = []
        enumerate_ = AffineMonoid._points

        def counting(self, bound, weight):
            calls.append((bound, weight))
            return enumerate_(self, bound, weight)

        monkeypatch.setattr(AffineMonoid, "_points", counting)
        for n in (2, 5, 7):
            calls.clear()
            G = gamma_category(cyclic_stack(n))
            chars = G.group.characters()
            # None and (1,) are one grading
            for bound, weight in ((6, None), (6, (1,)), (9, None), (6, (2,))):
                for chi in chars:
                    for chi_prime in chars:
                        hom_graded(G, chi, chi_prime, bound, weight)
            assert calls == [(6, (1,)), (9, (1,)), (6, (2,))]

    def test_each_coset_keeps_one_graded_dims(self):
        G = gamma_category(cyclic_stack(4))
        quarter = isotypic_component(G.monoid, (Fraction(1, 4),), 6)
        assert quarter.dims == (0, 1, 0, 0, 0, 1, 0)
        assert isotypic_component(G.monoid, (Fraction(5, 4),), 6) is quarter
        assert (isotypic_component(G.monoid, (5,), 6)
                is isotypic_component(G.monoid, (0,), 6))
        # a character off the lattice meets the coset no element lies in
        third = isotypic_component(G.monoid, (Fraction(1, 3),), 6)
        assert third.dims == (0,) * 7
        assert isotypic_component(G.monoid, (Fraction(2, 3),), 6) is third

    @pytest.mark.parametrize("bound, weight", [
        (6, (1.0,)), (6, (True,)), (6.0, (1,)), (6.0, None), (True, None)])
    def test_warm_table_keeps_the_checks(self, bound, weight):
        # 1.0 and True hash as 1: a lookup before the checks would hit
        G = gamma_category(cyclic_stack(3))
        chars = G.group.characters()
        isotypic_component(G.monoid, (0,), 6, weight=(1,))
        hom_graded(G, chars[0], chars[1], 1)
        with pytest.raises(CohError, match="is not an integer"):
            isotypic_component(G.monoid, (0,), bound, weight)
        with pytest.raises(CohError, match="is not an integer"):
            hom_graded(G, chars[0], chars[1], bound, weight)

    def test_only_proper_weights_are_remembered(self):
        G = gamma_category(cyclic_stack(3))
        for weight in ((1,), (0,), (2,), (-1,), (1,), (0,)):
            if weight[0] > 0:
                isotypic_component(G.monoid, (0,), 4, weight)
                continue
            with pytest.raises(ImproperWeightError):
                isotypic_component(G.monoid, (0,), 4, weight)
        assert G.monoid._proper_weights == {(1,), (2,)}
        # a remembered weight still answers to the type checks, also on
        # the enumeration, which builds no GradedDims to catch it
        for weight in ((1.0,), (True,), (2.0,)):
            with pytest.raises(CohError, match="is not an integer"):
                isotypic_component(G.monoid, (0,), 4, weight)
            with pytest.raises(CohError, match="is not an integer"):
                G.monoid.elements_by_degree(4, weight)

    @pytest.mark.parametrize("weight", [(0,), (-1,)])
    def test_improper_weight_raises_every_time(self, weight):
        G = gamma_category(cyclic_stack(3))
        isotypic_component(G.monoid, (0,), 6)
        for _ in range(3):
            with pytest.raises(ImproperWeightError):
                isotypic_component(G.monoid, (0,), 6, weight)
        assert list(G.monoid._coset_tables) == [(6, (1,))]

    @pytest.mark.parametrize("chi", [(0.1,), (0.5,), (True,), ("1/3",)])
    def test_inexact_character_rejected(self, chi):
        # (0.1,) used to give all zeros and (True,) the character 1
        G = gamma_category(cyclic_stack(3))
        with pytest.raises(CohError, match="character entry"):
            isotypic_component(G.monoid, chi, 6)
        with pytest.raises(CohError, match="character entry"):
            costandard_stalk(Cone([(1,)], ambient_rank=1), chi, 6,
                             denominator=3)


class TestCyclicPaths:
    def test_basic(self):
        dims = cyclic_quiver_paths(3, 0, 1, 8)
        assert dims.dims == (0, 1, 0, 0, 1, 0, 0, 1, 0)

    def test_loop_at_vertex(self):
        assert cyclic_quiver_paths(4, 2, 2, 0).dims == (1,)

    def test_two_cycle(self):
        dims = cyclic_quiver_paths(2, 0, 0, 6)
        assert dims.dims == (1, 0, 1, 0, 1, 0, 1)

    def test_matches_hom_graded(self):
        for n in range(2, 7):
            G = gamma_category(cyclic_stack(n))
            chars = G.group.characters()
            for i in range(n):
                for j in range(n):
                    assert (hom_graded(G, chars[i], chars[j], 12).dims
                            == cyclic_quiver_paths(n, i, j, 12).dims)

    def test_matches_state_vector_walk(self):
        for n in range(1, 9):
            for i in range(n):
                for j in range(n):
                    for bound in range(31):
                        assert (cyclic_quiver_paths(n, i, j, bound).dims
                                == reference_cyclic_quiver_paths(
                                    n, i, j, bound)), (n, i, j, bound)

    def test_bad_vertices(self):
        with pytest.raises(CohError):
            cyclic_quiver_paths(3, 0, 3, 5)

    @pytest.mark.parametrize("args, message", [
        ((3, 0, 1, 2.5), "length_bound = 2.5 is not an integer"),
        ((3.0, 0, 1, 2), "n = 3.0 is not an integer"),
        ((True, 0, 0, 3), "n = True is not an integer"),
        ((3, False, 1, 2), "i = False is not an integer"),
        ((3, 0, "1", 2), "j = '1' is not an integer"),
        ((0, 0, 0, 3), "n >= 1"),
        ((-2, 0, 0, 3), "n >= 1"),
        ((3, 0, 1, -1), "length bound must be nonnegative")])
    def test_bad_arguments_rejected(self, args, message):
        # 2.5 and 3.0 used to end in a raw TypeError, and True to count
        # paths on a 1-cycle
        with pytest.raises(CohError, match=message):
            cyclic_quiver_paths(*args)


class TestIsotypic:
    def test_untwisted_cyclic(self):
        G = gamma_category(cyclic_stack(4))
        dims = isotypic_component(G.monoid, (0,), 12)
        # integer points of Z>=0 sit at weights 0, 4, 8, 12
        assert dims.dims == tuple(1 if d % 4 == 0 else 0 for d in range(13))

    def test_twisted_cyclic(self):
        G = gamma_category(cyclic_stack(3))
        dims = isotypic_component(G.monoid, (Fraction(2, 3),), 9)
        # support {2/3, 5/3, 8/3} -> weights 2, 5, 8
        assert dims.dims == (0, 0, 1, 0, 0, 1, 0, 0, 1, 0)

    def test_character_of_the_wrong_rank_rejected(self):
        mono = orthant_monoid(2)
        for chi in ((0,), (0, 0, 0)):
            with pytest.raises(CohError, match="character has the wrong rank"):
                isotypic_component(mono, chi, 3)

    def test_character_off_the_monoid_lattice_is_zero(self):
        G = gamma_category(cyclic_stack(3))
        for chi in ((Fraction(1, 2),), (Fraction(1, 6),), (Fraction(-5, 9),)):
            assert isotypic_component(G.monoid, chi, 6).dims == (0,) * 7

    def test_completeness(self):
        G = gamma_category(cyclic_stack(4))
        full = G.monoid.elements_by_degree(9)
        total = [len(full[d]) for d in range(10)]
        summed = [0] * 10
        for i in range(4):
            part = isotypic_component(G.monoid, (Fraction(i, 4),), 9)
            summed = [a + b for a, b in zip(summed, part.dims)]
        assert summed == total

    def test_product_kunneth(self):
        # [A^1/mu_2]^2: the 2d monoid is (1/2)Z>=0 x (1/2)Z>=0
        half = Fraction(1, 2)
        mono2 = AffineMonoid(2, [(1, 0), (0, 1)], lattice=scaled_lattice(2, 2))
        mono1 = AffineMonoid(1, [(1,)], lattice=scaled_lattice(1, 2))
        bound = 8
        for c1 in (0, half):
            for c2 in (0, half):
                two = isotypic_component(mono2, (c1, c2), bound).dims
                a = isotypic_component(mono1, (c1,), bound).dims
                b = isotypic_component(mono1, (c2,), bound).dims
                conv = [sum(a[i] * b[d - i] for i in range(d + 1))
                        for d in range(bound + 1)]
                assert list(two) == conv


class TestCostandard:
    def test_matches_isotypic_on_the_line(self):
        ray = Cone([(1,)], ambient_rank=1)
        mono = orthant_monoid(1)
        iso = isotypic_component(mono, (0,), 6)
        stalk = costandard_stalk(ray, (0,), 6)
        assert stalk.dims == iso.dims == (1,) * 7

    def test_matches_fraction_loop(self):
        rng = random.Random(20261019)
        compared = {"default": 0, "weighted": 0, "perp": 0, "twisted": 0}
        for _ in range(600):
            cone = random_strictly_convex_cone(rng)
            d = rng.randint(1, 4)
            chi = tuple(Fraction(rng.randint(-2 * d, 2 * d), d)
                        for _ in range(cone.ambient_rank))
            q, _, ineqs_q, _, _ = _adapted_quotient(cone)
            weight = None
            if rng.random() < 0.5:
                # a positive combination of the generator pairings is
                # proper; some draws add a negative one
                weight = [0] * q
                for row in ineqs_q:
                    c = rng.randint(-1 if rng.random() < 0.2 else 1, 3)
                    weight = [w + c * a for w, a in zip(weight, row)]
                weight = tuple(weight)
            bound = rng.randint(0, 8)
            args = (cone, chi, bound)
            try:
                expected = reference_costandard_stalk(*args, d, weight)
            except ImproperWeightError:
                with pytest.raises(ImproperWeightError):
                    costandard_stalk(*args, denominator=d, weight=weight)
                continue
            assert costandard_stalk(*args, denominator=d,
                                    weight=weight) == expected
            compared["default" if weight is None else "weighted"] += 1
            compared["perp"] += q < cone.ambient_rank
            compared["twisted"] += any(x.denominator > 1 for x in chi)
        assert min(compared.values()) >= 100, compared

    def test_warm_cone_matches_fraction_loop(self):
        # every stalk of one cone reads the quotient data kept on it, and
        # gives the dims the oracle gives
        rng = random.Random(20261020)
        compared = 0
        for _ in range(60):
            cone = random_strictly_convex_cone(rng)
            # the sum of the generator pairings is a proper weight
            ineqs_q = _adapted_quotient(cone)[2]
            proper = tuple(map(sum, zip(*ineqs_q))) or None
            kept = []
            for _ in range(6):
                d = rng.randint(1, 4)
                chi = tuple(Fraction(rng.randint(-2 * d, 2 * d), d)
                            for _ in range(cone.ambient_rank))
                weight = rng.choice((None, proper))
                args = (cone, chi, rng.randint(0, 6))
                try:
                    expected = reference_costandard_stalk(*args, d, weight)
                except ImproperWeightError:
                    with pytest.raises(ImproperWeightError):
                        costandard_stalk(*args, denominator=d, weight=weight)
                else:
                    assert costandard_stalk(*args, denominator=d,
                                            weight=weight) == expected
                    compared += 1
                kept.append(cone._quotient)
            assert all(data is kept[0] for data in kept)
        assert compared >= 200, compared

    def test_zero_cone(self):
        stalk = costandard_stalk(Cone((), ambient_rank=2), (0, 0), 4)
        assert stalk.dims == (1, 0, 0, 0, 0)

    def test_cyclic_partition(self):
        ray = Cone([(1,)], ambient_rank=1)
        G = gamma_category(cyclic_stack(3))
        stalks = [costandard_stalk(ray, (Fraction(i, 3),), 10, denominator=3)
                  for i in range(3)]
        total = [sum(s.dims[d] for s in stalks) for d in range(11)]
        full = G.monoid.elements_by_degree(10)
        assert total == [len(full[d]) for d in range(11)]

    def test_kappa_all_coordinate_cones(self):
        for n in range(1, 4):
            for k in range(1, n + 1):
                cone = unit_cone(k, n)
                iso = isotypic_component(orthant_monoid(k), (0,) * k, 10)
                stalk = costandard_stalk(cone, (0,) * n, 10)
                assert stalk.dims == iso.dims

    @pytest.mark.parametrize("bound,denominator,message", [
        (2.5, 1, "bound 2.5"), (-1, 1, "bound -1"), (True, 1, "bound True"),
        (4, Fraction(5, 2), r"denominator Fraction\(5, 2\)"),
        (4, 0, "denominator 0")])
    def test_non_integer_bound_or_denominator_rejected(self, bound,
                                                       denominator, message):
        # a bound of 2.5 used to end in a raw TypeError
        with pytest.raises(CohError, match=message):
            costandard_stalk(Cone([(1,)], ambient_rank=1), (0,), bound,
                             denominator=denominator)

    @pytest.mark.parametrize("weight,message", [
        ((1, 1, 5), r"weight \(1, 1, 5\) has length 3, expected the "
                    "quotient rank 2"),
        ((1,), "has length 1"),
        ((1.5, 1), "weight entry 1.5 is not an integer"),
        ((True, 1), "weight entry True"),
        ((Fraction(1), 1), r"weight entry Fraction\(1, 1\)"),
    ], ids=["too-long", "too-short", "float", "bool", "fraction"])
    def test_bad_weight_rejected(self, weight, message):
        # (1, 1, 5) used to give the dims of (1, 1), (1.5, 1) a raw
        # AttributeError, and (True, 1) was accepted
        orthant = Cone([(1, 0), (0, 1)], ambient_rank=2)
        with pytest.raises(CohError, match=message):
            costandard_stalk(orthant, (0, 0), 4, weight=weight)

    def test_weight_is_checked_against_the_quotient_rank(self):
        # a ray in the plane has a rank-one quotient
        ray = Cone([(1, 0)], ambient_rank=2)
        assert costandard_stalk(ray, (0, 0), 3, weight=(2,)).dims == \
            (1, 0, 1, 0)
        with pytest.raises(CohError, match="quotient rank 1"):
            costandard_stalk(ray, (0, 0), 3, weight=(1, 1))

    def test_character_of_the_wrong_rank_rejected(self):
        ray = Cone([(1, 0)], ambient_rank=2)
        for chi in ((0,), (0, 0, 0)):
            with pytest.raises(CohError, match="character has the wrong rank"):
                costandard_stalk(ray, chi, 3)

    def test_cone_with_a_line_rejected(self):
        strip = Cone([(1, 0), (-1, 0), (0, 1)], ambient_rank=2)
        assert not strip.is_strictly_convex()
        with pytest.raises(CohError, match="need a strictly convex cone"):
            costandard_stalk(strip, (0, 0), 3)

    def test_incompatible_character(self):
        ray = Cone([(1,)], ambient_rank=1)
        with pytest.raises(IncompatibleCharacterError):
            costandard_stalk(ray, (Fraction(1, 2),), 4, denominator=3)

    def test_kappa_index_two_surface(self):
        # quotient surface chart: the default weight is improper on this
        # cone, so grade by twice the first coordinate instead
        sf = StackyFan(IntMatrix([[1, 1], [-1, 1]]),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]))
        G = gamma_category(sf)
        sigma = sf.fan.maximal_cones()[0]
        half = Fraction(1, 2)
        weight = (2, 0)
        for chi in ((0, 0), (half, half)):
            iso = isotypic_component(G.monoid, chi, 10, weight=weight)
            stalk = costandard_stalk(sigma, chi, 10, denominator=2,
                                     weight=weight)
            assert iso.dims == stalk.dims
        untwisted = isotypic_component(G.monoid, (0, 0), 10, weight=weight)
        assert untwisted.dims == (1, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0)
        twisted = isotypic_component(G.monoid, (half, half), 10, weight=weight)
        assert twisted.dims == (0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 6)


class TestPnCohomology:
    def test_positive_line(self):
        assert pn_line_bundle_cohomology(1, 2) == (3, 0)

    def test_structure_sheaf(self):
        assert pn_line_bundle_cohomology(2, 0) == (1, 0, 0)

    def test_negative_line(self):
        assert pn_line_bundle_cohomology(1, -2) == (0, 1)

    def test_binomials(self):
        for n in (1, 2, 3, 4, 5):
            for e in range(5):
                coh = pn_line_bundle_cohomology(n, e)
                assert coh[0] == comb(n + e, n)
                assert all(x == 0 for x in coh[1:])

    def test_top_cohomology(self):
        for n in (1, 2, 3, 4, 5):
            for d in range(-n - 1, -n - 5, -1):
                coh = pn_line_bundle_cohomology(n, d)
                assert coh[n] == comb(-d - 1, n)
                assert all(x == 0 for x in coh[:n])

    def test_serre_symmetry(self):
        for n in (1, 2):
            for d in range(-6, 3):
                coh = pn_line_bundle_cohomology(n, d)
                dual = pn_line_bundle_cohomology(n, -d - n - 1)
                assert coh[n] == dual[0]

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            pn_line_bundle_cohomology(2, 5, box_bound=3)

    def test_intermediate_zero(self):
        for d in range(-4, 5):
            coh = pn_line_bundle_cohomology(3, d)
            assert coh[1] == 0 and coh[2] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_box_loop(self, n):
        # each box is scanned once, for every d that uses it
        by_box = {}
        for d in range(-4, 5) if n == 4 else range(-n - 5, 7):
            for box in (abs(d), abs(d) + 1, abs(d) + 3):
                by_box.setdefault(box, []).append(d)
        for box, ds in by_box.items():
            for d, expected in reference_pn_line_bundle_cohomology(
                    n, ds, box).items():
                if isinstance(expected, TruncationError):
                    with pytest.raises(TruncationError) as got:
                        pn_line_bundle_cohomology(n, d, box)
                    assert str(got.value) == str(expected)
                else:
                    assert pn_line_bundle_cohomology(n, d, box) == expected

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(CohError, match="projective space needs n >= 1"):
            pn_line_bundle_cohomology(n, 1)

    @pytest.mark.parametrize("args", [
        (2, 1.5), (2, 1, 2.0), (True, 1), (2, False), (2, 1, True),
        (Fraction(2), 1), ("2", 1), (None, 1), (2, None)])
    def test_non_integer_input_rejected(self, args):
        with pytest.raises(CohError, match="is not an integer"):
            pn_line_bundle_cohomology(*args)


class TestEulerPairing:
    def test_examples(self):
        assert euler_pairing_coherent(2, 0, 1) == 3
        assert euler_pairing_coherent(2, 3, 3) == 1
        assert euler_pairing_coherent(1, 0, -2) == -1

    def test_binomial_continuation(self):
        def continuation(n, e):
            num = 1
            for i in range(1, n + 1):
                num *= e + i
            den = 1
            for i in range(1, n + 1):
                den *= i
            assert num % den == 0
            return num // den

        for n in (1, 2, 3):
            for e in range(-5, 5):
                assert euler_pairing_coherent(n, 0, e) == continuation(n, e)


class TestAffineMonoid:
    def test_membership_is_exact(self):
        mono = AffineMonoid(2, [(1, 0), (1, 2)])
        assert mono.contains((1, 0))
        assert not mono.contains((0, -1))
        assert mono.contains((0, 0))
        assert not mono.contains((Fraction(1, 2), 0))  # off the lattice

    @pytest.mark.parametrize("point", [(0.75,), (True,), ("1",), (1.0,)])
    def test_membership_rejects_inexact_coordinates(self, point):
        # on the order-4 line, (0.75,) and (True,) used to be members
        mono = AffineMonoid(1, [(1,)], lattice=scaled_lattice(1, 4))
        assert mono.contains((Fraction(3, 4),)) and mono.contains((1,))
        with pytest.raises(CohError, match="is not an integer or a Fraction"):
            mono.contains(point)

    def test_membership_of_a_point_of_the_wrong_length_is_false(self):
        mono = orthant_monoid(2)
        assert mono.contains((1, 1))
        assert not mono.contains((1,)) and not mono.contains((1, 1, 1))

    def test_wrong_length_inequality_rejected(self):
        with pytest.raises(CohError, match="length 3"):
            AffineMonoid(2, [(1, 2, 3)])

    def test_negative_bound_rejected_on_both_grading_paths(self):
        # the first call checks the default weight and remembers it; the
        # second returns it after the bound check alone, and an explicit
        # weight takes the full check
        mono = orthant_monoid(2)
        for weight in (None, None, (2, 1)):
            with pytest.raises(CohError, match="bound must be nonnegative"):
                mono.elements_by_degree(-1, weight)
        assert mono._proper_weights == {(1, 1), (2, 1)}

    def test_fraction_inequalities_scaled_not_truncated(self):
        mono = AffineMonoid(2, [(Fraction(1, 2), 1), (Fraction(3, 2), -1)])
        assert mono.inequalities == ((1, 2), (3, -2))
        assert mono.contains((2, -1)) and not mono.contains((0, -1))
        # int rows stay exactly as given, even when not primitive
        mono = AffineMonoid(2, [(2, 4), (0, 3)])
        assert mono.inequalities == ((2, 4), (0, 3))

    @pytest.mark.parametrize("bad", [0.5, "1", True, None])
    def test_non_exact_inequality_entry_rejected(self, bad):
        with pytest.raises(CohError, match="not an integer or a Fraction"):
            AffineMonoid(2, [(1, 0), (bad, 1)])

    def test_elements_by_degree(self):
        mono = orthant_monoid(2)
        by_deg = mono.elements_by_degree(3)
        assert [len(by_deg[d]) for d in range(4)] == [1, 2, 3, 4]

    def test_elements_match_contains_loop(self):
        rng = random.Random(20261018)
        compared = 0
        while compared < 240:
            mono = random_monoid(rng)
            weight = mono.default_weight()
            if not mono.weight_is_proper(weight):
                weight = tuple(map(sum, zip(*mono.inequalities)))
            if not mono.weight_is_proper(weight):
                with pytest.raises(ImproperWeightError):
                    mono.elements_by_degree(2, weight)
                continue
            bound = rng.randint(2, 12)
            while bound and len(list(product(
                    *reference_box(mono, bound, weight)))) > 800:
                bound -= 1
            assert (mono.elements_by_degree(bound, weight)
                    == reference_elements_by_degree(mono, bound, weight))
            compared += 1

    @pytest.mark.parametrize("mono", [
        AffineMonoid(0, []), AffineMonoid(0, [()]),
        AffineMonoid(0, [], lattice=LatticeQuotient([]))])
    def test_rank_zero_matches_contains_loop(self, mono):
        for bound in (0, 3):
            got = mono.elements_by_degree(bound)
            assert got == reference_elements_by_degree(mono, bound)
            assert got[0] == [()]

    @pytest.mark.parametrize("rows,weight,bounds", [
        # with a last weight entry of 0 the degree bound does not clip the
        # last coordinate; with a negative one it clips it from below
        ([(1, -1), (1, 1)], (2, 0), (0, 3, 5)),
        ([(1, -1), (1, 1)], (3, -1), (0, 4, 7)),
        ([(1, 0), (1, -2)], (2, -1), (3, 6)),
        # x0 >= x1 has last entry 0 and fails on part of the box
        ([(1, -1, 0), (0, 1, 0), (0, 0, 1), (1, 0, -2)], (1, 0, 0), (2, 5)),
        ([(1, -1, 0), (0, 1, 0), (0, 0, 1), (1, 0, -2)], (2, 1, -1), (3, 6)),
    ])
    def test_last_weight_entry_zero_or_negative(self, rows, weight, bounds):
        rank = len(weight)
        # a beta of determinant rank: (1/rank) Z^rank refined to a lattice
        beta = IntMatrix([[1] * rank] + [
            [int(i == j + 1) - int(i == j) for i in range(rank)]
            for j in range(rank - 1)])
        for lattice in (None, scaled_lattice(rank, 2),
                        character_lattice_quotient(beta)):
            mono = AffineMonoid(rank, rows, lattice=lattice)
            assert mono.weight_is_proper(weight)
            for bound in bounds:
                assert (mono.elements_by_degree(bound, weight)
                        == reference_elements_by_degree(mono, bound, weight))

    def test_seeded_weights_match_contains_loop(self):
        # weights drawn whole, so the last entry is often 0 or negative
        rng = random.Random(20261019)
        compared = nonpositive_last = 0
        while compared < 150:
            mono = random_monoid(rng)
            weight = tuple(rng.randint(-3, 3) for _ in range(mono.rank))
            if not mono.weight_is_proper(weight):
                continue
            bound = rng.randint(0, 9)
            while bound and len(list(product(
                    *reference_box(mono, bound, weight)))) > 800:
                bound -= 1
            assert (mono.elements_by_degree(bound, weight)
                    == reference_elements_by_degree(mono, bound, weight))
            compared += 1
            nonpositive_last += weight[-1] <= 0
        assert nonpositive_last >= 30

    @pytest.mark.parametrize("beta,bound,weight", [
        *[([[n]], 24, None) for n in range(2, 13)],
        ([[1, 1], [-1, 1]], 16, (2, 0)),
        ([[2, 1], [0, 3]], 16, None),
        ([[3, 0], [0, 2]], 16, None),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 8, None),
    ])
    def test_benchmark_charts_match_contains_loop(self, beta, bound, weight):
        rank = len(beta)
        sf = StackyFan(IntMatrix(beta), fan_from_max_cones(
            [Cone([tuple(int(i == j) for j in range(rank))
                   for i in range(rank)], ambient_rank=rank)]))
        mono = gamma_category(sf).monoid
        assert (mono.elements_by_degree(bound, weight)
                == reference_elements_by_degree(mono, bound, weight))

    @pytest.mark.parametrize("bound,weight", [
        (2.5, None), (True, None), ("3", None), (Fraction(3), None),
        (3, (1, 1.0)), (3, (True, 1)), (3, (Fraction(1), 1))])
    def test_non_integer_bound_or_weight_rejected(self, bound, weight):
        with pytest.raises(CohError, match="is not an integer"):
            orthant_monoid(2).elements_by_degree(bound, weight)

    @pytest.mark.parametrize("rank", [1.7, True, -1])
    def test_non_integer_rank_rejected(self, rank):
        # int() used to turn these into rank 1
        with pytest.raises(CohError, match=f"^rank {rank!r} is not"):
            AffineMonoid(rank, [(1,)])

    @pytest.mark.parametrize("lattice", [
        Fraction(5, 2), 2.0, True, [[Fraction(1, 2)]],
        LatticeQuotient([[1, 0], [0, 1]]), LatticeQuotient([])])
    def test_lattice_must_be_a_quotient_of_the_rank(self, lattice):
        # a basis with a denominator that disagreed with it used to give
        # a monoid with no element off Z
        with pytest.raises(CohError,
                           match=f"^lattice {re.escape(repr(lattice))} "):
            AffineMonoid(1, [(1,)], lattice=lattice)

    def test_membership_matches_cone_and_character_of(self):
        # x lies in the monoid iff it pairs nonnegatively with every ray
        # of the image cone and the quotient places it in the superlattice
        rng = random.Random(20261020)
        seen = set()
        for G, sf, _ in oracle_charts():
            rays = sf.fan.maximal_cones()[0].rays
            d = G.monoid.denominator
            for _ in range(60):
                point = tuple(Fraction(rng.randint(-2 * d, 2 * d),
                                       rng.choice((1, d, 2 * d)))
                              for _ in range(G.monoid.rank))
                in_cone = all(sum(a * x for a, x in zip(ray, point)) >= 0
                              for ray in rays)
                try:
                    G.quotient.character_of(point)
                    on_lattice = True
                except ZlinError as exc:
                    assert str(exc) == ("vector does not lie in the "
                                        "superlattice")
                    on_lattice = False
                assert G.monoid.contains(point) == (in_cone and on_lattice)
                seen.add((in_cone, on_lattice))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_weight_of_wrong_length_rejected(self):
        # zip used to drop the 5 and count degrees as for (1, 1)
        with pytest.raises(CohError, match="has length 3, expected 2"):
            orthant_monoid(2).elements_by_degree(2, weight=(1, 1, 5))

    def test_weight_must_be_proper(self):
        mono = AffineMonoid(2, [(1, -1), (1, 1)])
        with pytest.raises(ImproperWeightError):
            mono.elements_by_degree(3)
        # a proper custom weight works: x1 = 1 admits x2 in {-1, 0, 1}
        got = mono.elements_by_degree(2, weight=(2, 0))
        assert [len(got[d]) for d in range(3)] == [1, 0, 3]


def scan_box(los, his, clips, base=None, stride=1):
    """Every integer point of the box, in lexicographic order, kept when
    it meets every clip and, with a base, lies in its coset."""
    return [y for y in product(*(range(lo, hi + 1)
                                 for lo, hi in zip(los, his)))
            if all(sum(a * x for a, x in zip(row, y)) + c >= 0
                   for row, c in clips)
            and (base is None or all((x - b) % stride == 0
                                     for x, b in zip(y, base)))]


class TestRanges:
    def test_matches_box_scan(self):
        # seeded boxes of rank 1-4, some empty, with up to three random
        # clips, sometimes one no point meets, and sometimes a coset
        rng = random.Random(20261021)
        seen = {"last > 0": 0, "last < 0": 0, "last = 0": 0, "dead": 0,
                "coset": 0, "rank 4": 0, "points": 0}
        for _ in range(800):
            rank = rng.randint(1, 4)
            los = [rng.randint(-4, 2) for _ in range(rank)]
            his = [lo + rng.randint(-1, 5 if rank < 4 else 3) for lo in los]
            clips = [(tuple(rng.randint(-3, 3) for _ in range(rank)),
                      rng.randint(-6, 6)) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.1:
                clips.append(((0,) * rank, -rng.randint(1, 3)))
                seen["dead"] += 1
            base, stride = None, 1
            if rng.random() < 0.4:
                stride = rng.randint(1, 4)
                base = tuple(rng.randint(-5, 5) for _ in range(rank))
                seen["coset"] += 1
            found = _ranges(los, his, clips, base, stride)
            assert all(lo <= hi for _, lo, hi in found)
            got = [head + (t,) for head, lo, hi in found
                   for t in range(lo, hi + 1, stride)]
            expected = scan_box(los, his, clips, base, stride)
            assert got == expected, (los, his, clips, base, stride)
            for row, _ in clips:
                seen["last > 0" if row[-1] > 0 else
                     "last < 0" if row[-1] < 0 else "last = 0"] += 1
            seen["rank 4"] += rank == 4
            seen["points"] += len(expected)
        assert min(seen.values()) >= 60, seen

    def test_corner_of_a_large_box(self):
        # y0 + y1 + y2 >= 3 m - 2 on {0..m}^3 keeps ten points in a corner;
        # the clip bounds y0 through what y1 and y2 can still add, so no
        # head below m - 2 is visited
        m = 10 ** 6
        found = _ranges([0] * 3, [m] * 3, [((1, 1, 1), 2 - 3 * m)])
        assert [head + (t,) for head, lo, hi in found
                for t in range(lo, hi + 1)] == [
            y for y in product(range(m - 2, m + 1), repeat=3)
            if sum(y) >= 3 * m - 2]
