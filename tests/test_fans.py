import random
from fractions import Fraction
from itertools import product

import pytest

from fltzlab.fans import (
    Cone,
    FanError,
    StackyFan,
    _reduce_mod_lines,
    cech_nerve,
    dd_generators,
    dual_cone,
    faces,
    fan_from_json,
    fan_from_max_cones,
    fan_to_json,
    intersect_cones,
    is_refinement,
    is_smooth_cone,
    primitivize,
    standard_fan,
    validate_stacky,
)
from fltzlab.zlin import IntMatrix, kernel_basis, rational_rank


def _frac_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def reference_canonical_lines(lines, rank):
    """Canonical line basis with the column echelon done over Fractions."""
    if not lines:
        return []
    ann = kernel_basis(IntMatrix([list(l) for l in lines]))
    if not ann:
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    else:
        basis = kernel_basis(IntMatrix([list(a) for a in ann]))
    basis = [list(b) for b in basis]
    norm = []
    for col in range(rank):
        pivot = next((b for b in basis if b[col] != 0 and
                      all(x == 0 for x in b[:col])), None)
        if pivot is None:
            continue
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        norm.append(primitivize(pivot))
        basis = [[a - Fraction(b[col], pivot[col]) * p
                  for a, p in zip(b, pivot)] for b in basis]
        basis = [b for b in basis if any(x != 0 for x in b)]
    return [tuple(int(x) for x in v) for v in norm]


def reference_dd_generators(inequalities, rank):
    """Double description over Fractions, extremality by rank tests.

    The algorithm the integer double description replaced, kept as an
    oracle: every candidate combination is formed, then pruned to the
    rays whose tight inequalities have rank one less than the cone's.
    """
    ineqs = [tuple(a) for a in inequalities if any(x != 0 for x in a)]
    lines = [tuple(Fraction(int(i == j)) for j in range(rank))
             for i in range(rank)]
    rays = []

    def tight_rank(vec, upto):
        tight = [ineqs[i] for i in range(upto)
                 if _frac_dot(ineqs[i], vec) == 0]
        return rational_rank(tight) if tight else 0

    for idx, a in enumerate(ineqs):
        pivot_idx = next((i for i, l in enumerate(lines)
                          if _frac_dot(a, l) != 0), None)
        if pivot_idx is not None:
            pivot_line = lines.pop(pivot_idx)
            if _frac_dot(a, pivot_line) < 0:
                pivot_line = tuple(-x for x in pivot_line)
            pl = _frac_dot(a, pivot_line)
            lines = [tuple(x - Fraction(_frac_dot(a, l), pl) * y
                           for x, y in zip(l, pivot_line)) for l in lines]
            lines = [l for l in lines if any(x != 0 for x in l)]
            rays = [tuple(x - Fraction(_frac_dot(a, r), pl) * y
                          for x, y in zip(r, pivot_line)) for r in rays]
            rays.append(pivot_line)
        else:
            plus = [r for r in rays if _frac_dot(a, r) > 0]
            zero = [r for r in rays if _frac_dot(a, r) == 0]
            minus = [r for r in rays if _frac_dot(a, r) < 0]
            new = []
            for p in plus:
                for q in minus:
                    cand = tuple(_frac_dot(a, p) * y - _frac_dot(a, q) * x
                                 for x, y in zip(p, q))
                    if any(x != 0 for x in cand):
                        new.append(cand)
            rays = plus + zero + new
        processed = idx + 1
        full_rank = rational_rank([list(q) for q in ineqs[:processed]])
        seen = {}
        for r in rays:
            if all(_frac_dot(ineqs[i], r) >= 0 for i in range(processed)):
                key = primitivize(r)
                if any(x != 0 for x in key):
                    seen.setdefault(key, r)
        rays = [r for key, r in sorted(seen.items())
                if tight_rank(r, processed) == full_rank - 1]

    ray_keys = sorted({primitivize(r) for r in rays})
    line_keys = reference_canonical_lines([primitivize(l) for l in lines],
                                          rank)
    ray_keys = [_reduce_mod_lines(r, line_keys) for r in ray_keys]
    ray_keys = sorted({primitivize(r) for r in ray_keys
                       if any(x != 0 for x in r)})
    return ray_keys, line_keys


def random_inequalities(rng, rank):
    """0-10 rows with zero, duplicate, opposite, scaled and Fraction rows."""
    rows = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.2:
            rows.append(tuple(-x for x in rng.choice(rows)))
        elif rows and kind < 0.3:
            rows.append(tuple(rng.randint(2, 3) * x for x in rng.choice(rows)))
        elif kind < 0.35:
            rows.append(tuple(0 for _ in range(rank)))
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(rank)))
    if rng.random() < 0.2:
        rows = [tuple(Fraction(x, rng.randint(1, 4)) for x in r)
                for r in rows]
    return rows


def brute_force_dual_points(generators, rank, radius=5):
    """Grid oracle: dual lattice points nonnegative on every generator."""
    return {
        p for p in product(range(-radius, radius + 1), repeat=rank)
        if all(sum(a * b for a, b in zip(p, g)) >= 0 for g in generators)
    }


def fm_feasible(rows):
    """Fourier-Motzkin feasibility of {t : c . t + d >= 0 for (c, d) in rows}."""
    from fractions import Fraction
    rows = [([Fraction(x) for x in c], Fraction(d)) for c, d in rows]
    nvars = len(rows[0][0]) if rows else 0
    for v in range(nvars):
        lower = [r for r in rows if r[0][v] > 0]
        upper = [r for r in rows if r[0][v] < 0]
        rest = [r for r in rows if r[0][v] == 0]
        combined = []
        for (cl, dl) in lower:
            for (cu, du) in upper:
                alpha, beta = -cu[v], cl[v]
                coeffs = [alpha * a + beta * b for a, b in zip(cl, cu)]
                combined.append((coeffs, alpha * dl + beta * du))
        rows = rest + combined
    return all(d >= 0 for c, d in rows)


def membership_oracle(cone_generators, point):
    """x in cone(V) iff V lam = x has a solution with lam >= 0.

    Solves the equalities exactly, then runs Fourier-Motzkin on the
    solution space; fully independent of the double-description code.
    """
    from fractions import Fraction
    gens = [list(g) for g in cone_generators]
    k = len(gens)
    n = len(point)
    if k == 0:
        return all(x == 0 for x in point)
    # row-reduce [V | x] over the lambda variables
    aug = [[Fraction(gens[j][i]) for j in range(k)] + [Fraction(point[i])]
           for i in range(n)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return False  # x outside the span
    free = [c for c in range(k) if c not in pivots]
    # lam_pivot = particular - sum coeff * t_free; lam_free = t
    rows = []
    for idx, col in enumerate(pivots):
        coeffs = [-aug[idx][f] for f in free]
        rows.append((coeffs, aug[idx][k]))
    for j, f in enumerate(free):
        coeffs = [Fraction(int(i == j)) for i in range(len(free))]
        rows.append((coeffs, Fraction(0)))
    if not free:
        return all(d >= 0 for _, d in rows)
    return fm_feasible(rows)


class TestDualCone:
    def test_halfspace(self):
        d = dual_cone(Cone([(1, 0)], ambient_rank=2))
        assert set(d.generators) == {(1, 0), (0, 1), (0, -1)}

    def test_self_dual_orthant(self):
        d = dual_cone(Cone([(1, 0), (0, 1)]))
        assert set(d.generators) == {(1, 0), (0, 1)}

    def test_skew_cone(self):
        c = Cone([(1, 0), (1, 2)])
        d = dual_cone(c)
        assert set(d.rays) == {(0, 1), (2, -1)}
        # grid oracle: membership in the computed dual matches the
        # defining inequalities on a window of lattice points
        grid = brute_force_dual_points(c.generators, 2)
        for p in product(range(-5, 6), repeat=2):
            assert d.contains(p) == (p in grid)

    def test_involution_examples(self):
        for gens in ([(1, 0), (0, 1)], [(0, 1), (2, -1)], [(1, 1), (1, -1)],
                     [(1, 0, 0), (0, 1, 0), (1, 1, 2)]):
            c = Cone(gens)
            assert dual_cone(dual_cone(c)) == c

    def test_involution_random(self):
        rng = random.Random(19)
        done = 0
        while done < 60:
            rank = rng.choice((2, 3))
            gens = [tuple(rng.randint(-4, 4) for _ in range(rank))
                    for _ in range(rng.randint(2, rank + 2))]
            c = Cone(gens, ambient_rank=rank)
            if not (c.is_strictly_convex() and c.is_full_dimensional()):
                continue
            assert dual_cone(dual_cone(c)) == c
            done += 1

    def test_zero_cone(self):
        z = Cone((), ambient_rank=2)
        d = dual_cone(z)
        assert d.lines and not d.rays  # the whole plane
        assert dual_cone(d) == z


class TestFaces:
    def test_orthant_2d(self):
        fs = faces(Cone([(1, 0), (0, 1)]))
        assert len(fs) == 4
        dims = sorted(f.dim() for f in fs)
        assert dims == [0, 1, 1, 2]

    def test_zero_cone(self):
        fs = faces(Cone((), ambient_rank=2))
        assert len(fs) == 1 and fs[0].is_zero()

    def test_orthant_3d(self):
        assert len(faces(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))) == 8

    def test_nonsimplicial(self):
        # square cone over (+-1, +-1, 1): 1 + 4 + 4 + 1 faces
        c = Cone([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
        assert len(faces(c)) == 10


class TestSmoothness:
    def test_basis_cone(self):
        assert is_smooth_cone(Cone([(1, 0), (0, 1)]))

    def test_index_two(self):
        assert not is_smooth_cone(Cone([(0, 1), (2, -1)]))

    def test_zero(self):
        assert is_smooth_cone(Cone((), ambient_rank=3))

    def test_brute_force_completion_oracle(self):
        # search over small integer completions for a unimodular extension
        def completable(gens, rank):
            k = len(gens)
            if k == rank:
                return abs(IntMatrix([list(g) for g in gens]).det()) == 1
            for extra in product(range(-2, 3), repeat=rank):
                m = IntMatrix([list(g) for g in gens] + [list(extra)])
                if k + 1 == rank:
                    if abs(m.det()) == 1:
                        return True
                elif completable(list(gens) + [extra], rank):
                    return True
            return False

        cases = [
            Cone([(1, 0), (1, 1)]),
            Cone([(1, 2)], ambient_rank=2),
            Cone([(2, 4)], ambient_rank=2),  # non-primitive input normalizes
            Cone([(0, 1), (2, -1)]),
            Cone([(1, 0, 0), (1, 2, 0)], ambient_rank=3),
            Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
        ]
        for c in cases:
            assert is_smooth_cone(c) == completable(c.rays, c.ambient_rank)


class TestDoubleDescription:
    def test_matches_fraction_reference(self):
        rng = random.Random(41)
        shapes = {"pointed": 0, "lines": 0, "rays": 0}
        for _ in range(500):
            rank = rng.randint(0, 5)
            rows = random_inequalities(rng, rank)
            rays, lines = dd_generators(rows, rank)
            assert (rays, lines) == reference_dd_generators(rows, rank), \
                (rows, rank)
            shapes["lines" if lines else "pointed"] += 1
            shapes["rays"] += bool(rays and lines)
        # the draw covers pointed and non-pointed cones alike
        assert min(shapes.values()) > 50, shapes

    def test_wrong_length_rejected(self):
        with pytest.raises(FanError, match="length 3"):
            dd_generators([(1, 2, 3)], 2)
        with pytest.raises(FanError):
            dd_generators([(1, 0), (1,)], 2)


class TestConeBasics:
    def test_primitivize(self):
        assert primitivize((2, 4)) == (1, 2)
        assert primitivize((0, 0)) == (0, 0)
        assert primitivize((-3, 6)) == (-1, 2)
        assert primitivize(()) == ()
        assert primitivize((Fraction(3, 2), 1)) == (3, 2)

    def test_primitivize_int_path_matches_fraction_path(self):
        rng = random.Random(43)
        for _ in range(500):
            vec = tuple(rng.randint(-30, 30) * rng.choice((1, 1, 6))
                        for _ in range(rng.randint(0, 5)))
            fast = primitivize(vec)
            assert fast == primitivize([Fraction(x) for x in vec])
            assert all(type(x) is int for x in fast)

    def test_rational_generators_are_scaled_not_truncated(self):
        assert Cone([(Fraction(3, 2), 1)]).rays == ((3, 2),)
        assert Cone([(Fraction(1, 2), Fraction(1, 3))]).rays == ((3, 2),)

    @pytest.mark.parametrize("gens", [[(0.5, 1)], [(1.0, 0)], [("1", 0)],
                                      [(None, 0)], [(True, 0)]])
    def test_non_rational_generators_rejected(self, gens):
        with pytest.raises(FanError, match="not an integer"):
            Cone(gens)

    def test_negative_ambient_rank_rejected(self):
        with pytest.raises(FanError, match="negative"):
            Cone((), ambient_rank=-1)

    def test_canonical_generators(self):
        a = Cone([(2, 0), (0, 3), (1, 1)])
        b = Cone([(0, 1), (1, 0)])
        assert a == b  # (1,1) is interior, scalings are normalized

    def test_membership(self):
        c = Cone([(1, 0), (1, 2)])
        assert c.contains((1, 1))
        assert c.contains((0, 0))
        assert not c.contains((0, 1))
        assert c.contains((1, 1), strict=True)
        assert not c.contains((1, 0), strict=True)
        assert c.contains((Fraction(1, 2), Fraction(1, 3)))
        assert not c.contains((Fraction(1, 2), Fraction(3, 2)))

    def test_strict_convexity(self):
        assert Cone([(1, 0), (0, 1)]).is_strictly_convex()
        assert not Cone([(1, 0), (-1, 0)]).is_strictly_convex()

    def test_intersection(self):
        a = Cone([(1, 0), (1, 2)])
        b = Cone([(1, 2), (0, 1)])
        assert intersect_cones(a, b) == Cone([(1, 2)], ambient_rank=2)


class TestMembershipOracle:
    def test_contains_matches_fourier_motzkin(self):
        # the double-description membership against an independent exact
        # LP feasibility route, on random cones including non-pointed
        # and lower-dimensional ones
        rng = random.Random(23)
        for _ in range(40):
            rank = rng.choice((2, 3))
            gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rng.randint(1, rank + 2))]
            cone = Cone(gens, ambient_rank=rank)
            for _ in range(25):
                point = tuple(rng.randint(-3, 3) for _ in range(rank))
                assert cone.contains(point) == membership_oracle(gens, point), \
                    (gens, point)

    def test_dual_matches_grid(self):
        rng = random.Random(29)
        for _ in range(25):
            rank = 2
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 4))]
            cone = Cone(gens, ambient_rank=rank)
            dual = dual_cone(cone)
            grid = brute_force_dual_points(cone.generators, rank, radius=4)
            for p in product(range(-4, 5), repeat=rank):
                assert dual.contains(p) == (p in grid), (gens, p)


class TestFacesGridOracle:
    def test_every_supported_zero_set_is_a_face(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            rank = rng.choice((2, 3))
            gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rng.randint(2, rank + 1))]
            cone = Cone(gens, ambient_rank=rank)
            if not cone.is_strictly_convex():
                continue
            face_keys = {f.key for f in faces(cone)}
            rays = cone.rays
            for w in product(range(-4, 5), repeat=rank):
                vals = [sum(a * b for a, b in zip(w, g)) for g in rays]
                if any(v < 0 for v in vals):
                    continue  # not a supporting functional
                chosen = [g for g, v in zip(rays, vals) if v == 0]
                face = Cone(chosen, ambient_rank=rank)
                assert face.key in face_keys, (gens, w)
            done += 1


class TestFans:
    def test_p1_fan(self):
        fan = fan_from_max_cones([Cone([(1,)], ambient_rank=1),
                                  Cone([(-1,)], ambient_rank=1)])
        assert len(fan) == 3

    def test_empty_is_torus(self):
        fan = fan_from_max_cones([], rank=2)
        assert len(fan) == 1
        assert fan.cones[0].is_zero()

    def test_p2_closure(self):
        fan = standard_fan("Pn", n=2)
        assert len(fan) == 7
        assert len(fan.cones_of_dim(1)) == 3
        assert len(fan.cones_of_dim(2)) == 3

    def test_overlap_rejected(self):
        with pytest.raises(FanError, match="not a common face"):
            fan_from_max_cones([Cone([(1, 0), (0, 1)]),
                                Cone([(1, 1), (1, -1)])])

    def test_standard_fans(self):
        p1 = standard_fan("Pn", n=1)
        assert sorted(p1.rays()) == [(-1,), (1,)]
        ak = standard_fan("AkGm", n=3, k=2)
        assert ak.maximal_cones()[0] == Cone([(1, 0, 0), (0, 1, 0)],
                                             ambient_rank=3)
        assert len(ak) == 4
        pt = standard_fan("point")
        assert pt.rank == 0 and len(pt) == 1
        with pytest.raises(FanError):
            standard_fan("weird")


class TestCechNerve:
    def test_p1(self):
        nerve = cech_nerve(standard_fan("Pn", n=1))
        assert nerve.count_by_dim() == {0: 2, 1: 1}
        edge_cone = nerve.simplices[frozenset({0, 1})]
        assert edge_cone.is_zero()

    def test_p2(self):
        nerve = cech_nerve(standard_fan("Pn", n=2))
        assert nerve.count_by_dim() == {0: 3, 1: 3, 2: 1}
        # pairwise intersections are the three rays
        rays = {nerve.simplices[s].rays for s in nerve.simplices
                if len(s) == 2}
        assert all(len(r) == 1 for r in rays)
        assert nerve.simplices[frozenset({0, 1, 2})].is_zero()

    def test_single_cone(self):
        nerve = cech_nerve(standard_fan("AkGm", n=2, k=2))
        assert nerve.count_by_dim() == {0: 1}

    def test_pn_codimension(self):
        for n in (1, 2, 3):
            nerve = cech_nerve(standard_fan("Pn", n=n))
            assert len(nerve.vertices) == n + 1
            for s, cone in nerve.simplices.items():
                assert cone.dim() == n - (len(s) - 1)


class TestStacky:
    def test_cyclic_line(self):
        sf = StackyFan(IntMatrix([[3]]),
                       fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))
        assert validate_stacky(sf)

    def test_identity(self):
        fan = standard_fan("Pn", n=2)
        assert validate_stacky(StackyFan.nonstacky(fan))

    def test_infinite_cokernel(self):
        sf = StackyFan(IntMatrix([[2, 0], [0, 0]]),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]),
                       fan_from_max_cones([Cone([(1, 0)], ambient_rank=2)]))
        assert not validate_stacky(sf)

    def test_dimension_drop_detected(self):
        # beta collapses a 2-cone onto a ray: not cone-bijective
        beta = IntMatrix([[1, 1], [1, 1]])
        hat = fan_from_max_cones([Cone([(1, 0), (0, 1)])])
        with pytest.raises(FanError):
            # the image "fan" is not a fan of the same combinatorics
            sf = StackyFan(beta, hat)
            if not validate_stacky(sf):
                raise FanError("invalid")


class TestRefinement:
    def test_star_subdivision(self):
        orthant = fan_from_max_cones([Cone([(1, 0), (0, 1)])])
        split = fan_from_max_cones([Cone([(1, 0), (1, 1)]),
                                    Cone([(1, 1), (0, 1)])])
        assert is_refinement(split, orthant)
        assert not is_refinement(orthant, split)

    def test_identity_refinement(self):
        fan = standard_fan("Pn", n=2)
        assert is_refinement(fan, fan)

    def test_support_mismatch(self):
        orthant = fan_from_max_cones([Cone([(1, 0), (0, 1)])])
        partial = fan_from_max_cones([Cone([(1, 0), (1, 1)])])
        other = fan_from_max_cones([Cone([(1, 0), (-1, 1)])])
        assert not is_refinement(partial, orthant)
        assert not is_refinement(other, orthant)

    def test_resolution_of_singular_cone(self):
        singular = fan_from_max_cones([Cone([(0, 1), (2, -1)])])
        resolved = fan_from_max_cones([Cone([(0, 1), (1, 0)]),
                                       Cone([(1, 0), (2, -1)])])
        assert is_refinement(resolved, singular)
        assert all(is_smooth_cone(c) for c in resolved.maximal_cones())


class TestJson:
    def test_round_trip_plain(self):
        fan = standard_fan("Pn", n=2)
        assert fan_from_json(fan_to_json(fan)) == fan

    def test_round_trip_stacky(self):
        sf = StackyFan(IntMatrix([[4]]),
                       fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))
        back = fan_from_json(fan_to_json(sf))
        assert isinstance(back, StackyFan)
        assert back.beta == sf.beta
        assert back.fan_hat == sf.fan_hat

    def test_bad_schema(self):
        with pytest.raises(FanError):
            fan_from_json("[1, 2, 3]")

    @pytest.mark.parametrize("data", [
        {"rank": 2, "max_cones": 5},
        {"rank": 2, "max_cones": [[1, 0]]},
        {"rank": 2, "max_cones": [5]},
        {"rank": "x", "max_cones": []},
        {"rank": 1.5, "max_cones": []},
        {"rank": -1, "max_cones": []},
        {"rank": 2, "max_cones": [[[0.5, 1], [0, 1]]]},
    ])
    def test_schema_errors_are_fan_errors(self, data):
        with pytest.raises(FanError):
            fan_from_json(data)

    def test_point_fan_round_trip(self):
        pt = standard_fan("point")
        assert fan_from_json(fan_to_json(pt)) == pt
