import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm

import pytest

from fltzlab.cohside import (
    AffineMonoid,
    CohError,
    GradedDims,
    ImproperWeightError,
    IncompatibleCharacterError,
    TruncationError,
    _pattern_cohomology,
    costandard_stalk,
    cyclic_quiver_paths,
    euler_pairing_coherent,
    gamma_category,
    hom_graded,
    isotypic_component,
    pn_line_bundle_cohomology,
)
from fltzlab.fans import Cone, StackyFan, fan_from_max_cones
from fltzlab.skeleton import SkeletonError, character_lattice_quotient
from fltzlab.zlin import FiniteAbelianGroup, IntMatrix, ZlinError


def cyclic_stack(n):
    return StackyFan(IntMatrix([[n]]),
                     fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))


def unit_cone(k, n):
    return Cone([tuple(int(i == j) for j in range(n)) for i in range(k)],
                ambient_rank=n)


def reference_pn_line_bundle_cohomology(n, d, box_bound=None):
    """The full-box Cech loop: every character of the box, one by one."""
    if n < 1:
        raise CohError("projective space needs n >= 1")
    if box_bound is None:
        box_bound = abs(d) + 1
    if box_bound < abs(d):
        raise TruncationError(
            f"box bound {box_bound} is smaller than |d| = {abs(d)}; "
            "contributing characters would be cut off")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    coeffs = [0] * n + [d]  # divisor multiplicity per ray, last ray carries d
    totals = [0] * (n + 1)
    for m in product(range(-box_bound, box_bound + 1), repeat=n):
        missing = frozenset(
            i for i, (ray, a) in enumerate(zip(rays, coeffs))
            if sum(r * x for r, x in zip(ray, m)) < -a)
        contrib = _pattern_cohomology(n, missing)
        if any(contrib) and max(abs(x) for x in m) == box_bound:
            raise TruncationError(
                f"character {m} on the box boundary contributes; enlarge "
                "box_bound")
        for i, x in enumerate(contrib):
            totals[i] += x
    return tuple(totals)


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


def random_monoid(rng):
    """A monoid of rank 1-3 with int or Fraction rows, maybe on a lattice.

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
    denominator = rng.randint(1, 4)
    basis = None
    if rng.random() < 0.5:
        beta = [[rng.randint(-2, 3) for _ in range(rank)] for _ in range(rank)]
        try:
            basis = character_lattice_quotient(
                IntMatrix(beta)).superlattice_basis
        except SkeletonError:  # singular beta
            basis = None
        own = basis and lcm(*(x.denominator for c in basis for x in c))
        if own and own <= 4 and rng.random() < 0.5:
            denominator = own  # the lattice's own, as in gamma_category
    return AffineMonoid(rank, rows, denominator=denominator,
                        lattice_basis=basis)


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

    def test_needs_full_dimensional_cone(self):
        from fltzlab.skeleton import UnsupportedConeError
        sf = StackyFan(IntMatrix.identity(2),
                       fan_from_max_cones([Cone([(1, 0)], ambient_rank=2)]))
        with pytest.raises(UnsupportedConeError):
            gamma_category(sf)


class TestGradedDims:
    def test_int_dims_kept(self):
        g = GradedDims(dims=[1, 2], bound=1, weight=(1,))
        assert g.dims == (1, 2) and g.total() == 3

    @pytest.mark.parametrize("dims, bound", [
        ((1.5, 2.7), 1), ((1, True), 1), ((Fraction(1), 2), 1),
        ((1, "2"), 1), ((1, 2), 1.0), ((1, 2), True)])
    def test_non_int_rejected(self, dims, bound):
        # (1.5, 2.7) once held (1, 2)
        with pytest.raises(CohError, match="is not an integer"):
            GradedDims(dims=dims, bound=bound, weight=(1,))


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

    def test_character_of_another_group_rejected(self):
        G = gamma_category(cyclic_stack(3))
        other = FiniteAbelianGroup((7,)).character((1,))
        with pytest.raises(ZlinError):
            G.quotient.representative(other)
        with pytest.raises(ZlinError):
            G.quotient.representative((1,))
        with pytest.raises(ZlinError):
            hom_graded(G, other, other, 3)


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

    def test_bad_vertices(self):
        with pytest.raises(CohError):
            cyclic_quiver_paths(3, 0, 3, 5)


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
        mono2 = AffineMonoid(2, [(1, 0), (0, 1)], denominator=2)
        mono1 = AffineMonoid(1, [(1,)], denominator=2)
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
        for d in range(-4, 5) if n == 4 else range(-n - 5, 7):
            for box in (abs(d), abs(d) + 1, abs(d) + 3):
                try:
                    expected = reference_pn_line_bundle_cohomology(n, d, box)
                except TruncationError as exc:
                    with pytest.raises(TruncationError) as got:
                        pn_line_bundle_cohomology(n, d, box)
                    assert str(got.value) == str(exc)
                else:
                    assert pn_line_bundle_cohomology(n, d, box) == expected

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

    def test_wrong_length_inequality_rejected(self):
        with pytest.raises(CohError, match="length 3"):
            AffineMonoid(2, [(1, 2, 3)])

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

    @pytest.mark.parametrize("rank,denominator,message", [
        (1.7, 1, "rank 1.7"), (True, 1, "rank True"), (-1, 1, "rank -1"),
        (1, Fraction(5, 2), r"denominator Fraction\(5, 2\)"),
        (1, 2.0, "denominator 2.0"),
        (1, True, "denominator True")])
    def test_non_integer_rank_or_denominator_rejected(self, rank, denominator,
                                                      message):
        # int() used to turn these into rank 1 and denominator 2
        with pytest.raises(CohError, match=message):
            AffineMonoid(rank, [(1,)], denominator=denominator)

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
