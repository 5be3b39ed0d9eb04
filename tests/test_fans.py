import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from fltzlab.fans import (
    Cone,
    Fan,
    FanError,
    StackyFan,
    _reduce_mod_lines,
    _signed,
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
from fltzlab.zlin import IntMatrix, cokernel, kernel_basis, rational_rank


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

    def test_cone_with_a_line_is_not_smooth(self):
        # the upper half-plane holds the line through (1, 0)
        half = Cone([(1, 0), (-1, 0), (0, 1)])
        assert half.lines and not half.is_strictly_convex()
        assert not is_smooth_cone(half)

    def test_more_rays_than_the_dimension_is_not_smooth(self):
        # the square cone over (+-1, +-1, 1): pointed, four rays in rank 3
        square = Cone([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
        assert square.is_strictly_convex()
        assert (len(square.rays), square.dim()) == (4, 3)
        assert not is_smooth_cone(square)

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

    @pytest.mark.parametrize("point", [(0.5, 1), (True, 1), ("1", 1),
                                       (1, None)], ids=str)
    def test_membership_needs_exact_coordinates(self, point):
        # (0.5, 1), (True, 1) and ('1', 1) used to count as members
        with pytest.raises(FanError, match="is not an integer or a Fraction"):
            Cone([(1, 0), (0, 1)]).contains(point)

    @pytest.mark.parametrize("point", [(1,), (1, 0, 0), (0.5,)], ids=str)
    def test_membership_wrong_dimension(self, point):
        with pytest.raises(FanError, match="point has the wrong dimension"):
            Cone([(1, 0), (0, 1)]).contains(point)

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
            zero_sets = set()
            for w in product(range(-8, 9), repeat=rank):
                vals = [sum(a * b for a, b in zip(w, g)) for g in rays]
                if any(v < 0 for v in vals):
                    continue  # not a supporting functional
                zero_sets.add(tuple(g for g, v in zip(rays, vals) if v == 0))
            supported = {Cone(list(z), ambient_rank=rank).key
                         for z in zero_sets}
            # every supported zero set is a returned face, and conversely
            # every returned face is cut out by a supporting functional
            assert supported == face_keys, gens
            done += 1


def double_dual_cone(generators, rank):
    """The cone on ``generators`` through the double dual, two double
    descriptions with no shortcut; its dimension is left to
    ``rational_rank``."""
    gens = [primitivize(g) for g in generators if any(x != 0 for x in g)]
    hrep = _signed(*dd_generators(gens, rank))
    return Cone._from_reps(rank, *dd_generators(hrep, rank), hrep)


def reference_faces(c):
    """Faces by enumerating every ray subset, each built through the
    double dual.

    The algorithm the incidence-set closure replaced: a subset is a face
    iff the sum of the inequalities tight on all of it vanishes on
    exactly that subset.
    """
    rays = list(c.rays)
    out = {}
    for size in range(len(rays) + 1):
        for subset in combinations(range(len(rays)), size):
            chosen = [rays[i] for i in subset]
            w = [0] * c.ambient_rank
            for d in c._dual_gens:
                if all(_frac_dot(d, g) == 0 for g in chosen):
                    w = [a + b for a, b in zip(w, d)]
            zero_set = tuple(i for i, g in enumerate(rays)
                             if _frac_dot(w, g) == 0)
            if zero_set == subset:
                face = double_dual_cone(chosen, c.ambient_rank)
                out[face.key] = face
    return sorted(out.values(), key=lambda f: (f.dim(), f.key))


def reference_dual(c):
    """The dual rebuilt from its generators through the double dual."""
    rays, lines = dd_generators(c.generators, c.ambient_rank)
    return double_dual_cone(_signed(rays, lines), c.ambient_rank)


def reference_intersection(a, b):
    rays, lines = dd_generators(list(a._dual_gens) + list(b._dual_gens),
                                a.ambient_rank)
    return double_dual_cone(_signed(rays, lines), a.ambient_rank)


def reference_negated(c):
    return double_dual_cone([tuple(-x for x in g) for g in c.generators],
                            c.ambient_rank)


def seeded_cones(rng, count):
    """Cones in ranks 1..4: full-dimensional or not, pointed or not."""
    out = []
    for _ in range(count):
        rank = rng.randint(1, 4)
        if rng.random() < 0.5:
            # strictly convex: every generator in the half-space x_0 > 0
            gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                                for _ in range(rank - 1))
                    for _ in range(rng.randint(1, 6))]
        else:
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(rng.randint(0, 6))]
        out.append(Cone(gens, ambient_rank=rank))
    return out


def assert_same_cone(fast, slow, grid):
    # the rays in their stored order, not only the sorted key
    assert (fast.key, fast.rays, fast.lines) == (slow.key, slow.rays,
                                                 slow.lines)
    for p in grid[fast.ambient_rank]:
        assert fast.contains(p) == slow.contains(p), (fast, p)
        assert (fast.contains(p, strict=True)
                == slow.contains(p, strict=True)), (fast, p)


class TestConeOpsOracle:
    """Dual, intersection, negation and faces against the old routes."""

    GRID = {r: list(product(range(-2, 3), repeat=r)) for r in range(1, 4)}
    GRID[4] = list(product(range(-1, 2), repeat=4))

    def test_dual_intersection_negation_match_double_dual(self):
        rng = random.Random(47)
        cones = seeded_cones(rng, 160)
        shapes = {"pointed": 0, "lines": 0, "full": 0, "lower": 0}
        for c in cones:
            shapes["lines" if c.lines else "pointed"] += 1
            shapes["full" if c.is_full_dimensional() else "lower"] += 1
            assert_same_cone(dual_cone(c), reference_dual(c), self.GRID)
            assert_same_cone(c.negated(), reference_negated(c), self.GRID)
        assert min(shapes.values()) >= 20, shapes
        for a, b in zip(cones, cones[1:] + cones[:1]):
            if a.ambient_rank == b.ambient_rank:
                assert_same_cone(intersect_cones(a, b),
                                 reference_intersection(a, b), self.GRID)

    def test_faces_match_subset_enumeration(self):
        rng = random.Random(53)
        cones = [c for c in seeded_cones(rng, 60) if c.is_strictly_convex()]
        assert len(cones) > 40
        for c in cones:
            fast, slow = faces(c), reference_faces(c)
            assert [f.key for f in fast] == [f.key for f in slow], c
            for f, g in zip(fast, slow):
                assert_same_cone(f, g, self.GRID)


def random_simplicial_generators(rng, rank):
    """``rank`` linearly independent vectors, each given once or twice,
    scaled by 1-3 and at random as ``Fraction`` entries; returns the
    generators and which of those three shapes the draw has."""
    while True:
        basis = [tuple(rng.randint(-3, 3) for _ in range(rank))
                 for _ in range(rank)]
        if rational_rank(basis) == rank:
            break
    gens = []
    for b in basis:
        for _ in range(rng.randint(1, 2)):
            scale, den = rng.randint(1, 3), rng.randint(1, 4)
            g = tuple(scale * x for x in b)
            if rng.random() < 0.3:
                g = tuple(Fraction(x, den) for x in g)
            gens.append(g)
    rng.shuffle(gens)
    shapes = {"duplicated": len(gens) > rank,
              "non-primitive": any(primitivize(g) != g for g in gens),
              "fraction": any(type(x) is Fraction for g in gens for x in g)}
    return gens, shapes


class TestSimplicialFastPath:
    """Simplicial full-dimensional cones take the pointed path, one double
    description; the double dual is their oracle."""

    GRID = TestConeOpsOracle.GRID

    @pytest.fixture
    def dd_calls(self, monkeypatch):
        calls = []

        def counting(inequalities, rank):
            calls.append(rank)
            return dd_generators(inequalities, rank)

        monkeypatch.setattr("fltzlab.fans.dd_generators", counting)
        return calls

    def test_rays_and_hrep_match_double_dual(self, dd_calls):
        rng = random.Random(83)
        shapes = {"duplicated": 0, "non-primitive": 0, "fraction": 0}
        for rank in (1, 2, 3, 4):
            for _ in range(60):
                gens, shape = random_simplicial_generators(rng, rank)
                for k, v in shape.items():
                    shapes[k] += v
                dd_calls.clear()
                fast = Cone(gens, ambient_rank=rank)
                assert len(dd_calls) == 1
                slow = double_dual_cone(gens, rank)
                assert fast.rays == slow.rays and fast.lines == ()
                assert fast._dual_gens == slow._dual_gens, gens
                assert fast.dim() == slow.dim() == rank
                assert_same_cone(fast, slow, self.GRID)
        assert min(shapes.values()) >= 40, shapes

    def test_faces_match_reference(self, monkeypatch):
        rng = random.Random(89)
        cones = [Cone(random_simplicial_generators(rng, rank)[0],
                      ambient_rank=rank)
                 for rank in (1, 2, 3, 4) for _ in range(15)]
        ranks = []

        def counting(rows):
            ranks.append(rows)
            return rational_rank(rows)

        with monkeypatch.context() as m:
            m.setattr("fltzlab.fans.rational_rank", counting)
            fast = [faces(c) for c in cones]
            dims = [[f.dim() for f in fs] for fs in fast]
        assert ranks == []  # every dimension is a ray count
        for c, fs, ds in zip(cones, fast, dims):
            slow = reference_faces(c)
            assert [(f.key, d) for f, d in zip(fs, ds)] == \
                [(f.key, f.dim()) for f in slow], c
            for f, g in zip(fs, slow):
                assert_same_cone(f, g, self.GRID)

    def test_dependent_generators_fall_back(self, dd_calls):
        # r distinct generators of rank < r are not simplicial: a
        # pointed cone takes one double description, a cone with lines two
        rng = random.Random(97)
        shapes = {"pointed": 0, "lines": 0}
        for rank in (2, 3, 4):
            for _ in range(30):
                while True:
                    gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                            for _ in range(rank - 1)]
                    coeffs = [rng.randint(-2, 2) for _ in gens]
                    gens.append(tuple(
                        sum(c * g[i] for c, g in zip(coeffs, gens))
                        for i in range(rank)))
                    if (any(gens[-1]) and rational_rank(gens) < rank
                            and len({primitivize(g) for g in gens}) == rank):
                        break
                dd_calls.clear()
                fast = Cone(gens, ambient_rank=rank)
                assert len(dd_calls) == (2 if fast.lines else 1)
                slow = double_dual_cone(gens, rank)
                assert (fast.rays, fast.lines, fast._dual_gens) == \
                    (slow.rays, slow.lines, slow._dual_gens)
                assert fast.dim() == rational_rank(gens) < rank
                shapes["lines" if fast.lines else "pointed"] += 1
        assert min(shapes.values()) >= 10, shapes


def random_cone_generators(rng, rank):
    """Generators of a cone of random dimension in ``rank``: a few in an
    open half-space of a random subspace, then positive combinations of
    them (redundant interior points, two on one pair of generators),
    scaled copies with ``Fraction`` entries, and at times a negated
    generator, which makes a line."""
    dim = rng.randint(1, rank)
    while True:
        basis = [tuple(rng.randint(-2, 2) for _ in range(rank))
                 for _ in range(dim)]
        if rational_rank(basis) == dim:
            break

    def embed(coeffs):
        return tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                     for i in range(rank))

    gens = [embed((rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                               for _ in range(dim - 1)))
            for _ in range(rng.randint(2, 5))]
    g, h = rng.sample(gens, 2)
    gens += [tuple(a + b for a, b in zip(g, h)),
             tuple(a + 2 * b for a, b in zip(g, h))]
    for _ in range(rng.randint(0, 2)):
        chosen = rng.sample(gens, rng.randint(2, 3))
        gens.append(tuple(map(sum, zip(*chosen))))
    for _ in range(rng.randint(0, 2)):
        scale, den = rng.randint(1, 3), rng.randint(1, 4)
        gens.append(tuple(Fraction(scale * x, den) for x in rng.choice(gens)))
    if rng.random() < 0.3:
        gens.append(tuple(-x for x in rng.choice(gens)))
    rng.shuffle(gens)
    return gens


def cone_shapes(gens, slow):
    """Which shapes a draw of :func:`random_cone_generators` has, read
    from its double dual ``slow``."""
    prim = {primitivize(g) for g in gens if any(g)}
    shapes = {"lines": bool(slow.lines),
              "fraction": any(type(x) is Fraction for g in gens for x in g),
              "duplicated": len(prim) < sum(1 for g in gens if any(g))}
    if not slow.lines:
        two_faces = [f for f in reference_faces(slow) if f.dim() == 2]
        shapes.update(
            redundant=not prim <= set(slow.rays),
            lower=slow.dim() < slow.ambient_rank,
            two_in_one_2_face=any(
                sum(f.contains(g, strict=True) for g in prim) >= 2
                for f in two_faces))
    return shapes


class TestOneDoubleDescription:
    """A pointed cone built from generators takes its rays from their zero
    sets over its facet normals, and no cone dimension needs a rank; the
    double dual and ``rational_rank`` are the oracles."""

    GRID = TestConeOpsOracle.GRID

    def test_cones_match_double_dual(self, monkeypatch):
        rng = random.Random(101)
        shapes = {}
        calls, ranks = [], []

        def counting_dd(inequalities, rank):
            calls.append(rank)
            return dd_generators(inequalities, rank)

        def counting_rank(rows):
            ranks.append(rows)
            return rational_rank(rows)

        for rank in (1, 2, 3, 4):
            for _ in range(40):
                gens = random_cone_generators(rng, rank)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr("fltzlab.fans.dd_generators", counting_dd)
                    m.setattr("fltzlab.fans.rational_rank", counting_rank)
                    fast = Cone(gens, ambient_rank=rank)
                    passes = len(calls)
                    dims = (fast.dim(), dual_cone(fast).dim())
                    fs = faces(fast) if not fast.lines else []
                    face_dims = [f.dim() for f in fs]
                assert ranks == []
                slow = double_dual_cone(gens, rank)
                assert passes == (2 if slow.lines else 1), gens
                assert (fast.rays, fast.lines, fast._dual_gens) == \
                    (slow.rays, slow.lines, slow._dual_gens), gens
                assert dims == (slow.dim(), reference_dual(slow).dim())
                assert_same_cone(fast, slow, self.GRID)
                if fs:
                    ref = reference_faces(slow)
                    assert [(f.key, d) for f, d in zip(fs, face_dims)] == \
                        [(f.key, f.dim()) for f in ref], gens
                for k, v in cone_shapes(gens, slow).items():
                    shapes[k] = shapes.get(k, 0) + v
        assert len(shapes) == 6 and min(shapes.values()) >= 25, shapes

    def test_negation_keeps_the_dimension(self, monkeypatch):
        # a pointed cone and one with a line: -c has c's dimension, which
        # construction knew, so no rank is computed for it
        cones = [Cone([(1, 0, 0), (1, 2, 0), (1, 1, 3)]),
                 Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])]
        ranks = []

        def counting(rows):
            ranks.append(rows)
            return rational_rank(rows)

        monkeypatch.setattr("fltzlab.fans.rational_rank", counting)
        assert [c.negated().dim() for c in cones] == [3, 2]
        assert ranks == []
        assert [double_dual_cone(c.negated().generators, 3).dim()
                for c in cones] == [3, 2]


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

    def test_fan_is_closed_by_construction(self):
        # the ray (1, 1) inside the orthant once made a 'fan' whose
        # maximal cones listed that ray
        with pytest.raises(FanError, match="cones overlap"):
            Fan([Cone([(1, 0), (0, 1)]), Cone([(1, 1)], ambient_rank=2)], 2)
        with pytest.raises(FanError, match="not strictly convex"):
            Fan([Cone([(1, 0), (-1, 0)])], 2)
        with pytest.raises(FanError, match="does not match fan rank"):
            Fan([Cone([(1, 0)])], 3)

    def test_fan_adds_the_faces(self):
        p2 = standard_fan("Pn", n=2)
        assert Fan(p2.maximal_cones(), 2) == p2
        assert Fan(p2.cones, 2) == p2
        assert len(Fan([], 0)) == 1

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

    def test_ranks_must_match(self):
        plane, space = standard_fan("Pn", n=2), standard_fan("Pn", n=3)
        assert not is_refinement(plane, space)
        assert not is_refinement(space, plane)

    def test_coarse_cone_without_a_full_dimensional_cell(self):
        # the ray (1, 1) lies in the quadrant, but no fine cell of
        # dimension 2 does
        quadrant = fan_from_max_cones([Cone([(1, 0), (0, 1)])])
        diagonal = fan_from_max_cones([Cone([(1, 1)], ambient_rank=2)])
        (ray,) = diagonal.maximal_cones()
        (cone,) = quadrant.maximal_cones()
        assert cone.contains((1, 1)) and ray.dim() < cone.dim()
        assert not is_refinement(diagonal, quadrant)

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


def reference_maximal_cones(fan):
    """The geometric test the ray-set one replaced: a cone is maximal iff
    no other cone of the fan contains all of its rays."""
    cones = fan.cones
    out = [c for c in cones
           if not any(d.key != c.key and all(d.contains(g) for g in c.rays)
                      for d in cones)]
    return sorted(out, key=lambda c: c.key)


def unit_vectors(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


def stacky_charts_under_test():
    """The mu3 and mu4 golden stacks and the cyclic and benchmark stacky
    charts."""
    mu3 = fan_from_json('{"rank": 1, "max_cones": [[[1]]], "beta": [[3]]}')
    mu4 = fan_from_json('{"rank": 2, "max_cones": [[[1, 0], [0, 1]]], '
                        '"beta": [[2, 0], [0, 2]]}')
    charts = [[[n]] for n in range(2, 13)] + [
        [[1, 1], [-1, 1]], [[2, 1], [0, 3]], [[3, 0], [0, 2]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 1]]]
    return [mu3, mu4] + [
        StackyFan(IntMatrix(beta), fan_from_max_cones(
            [Cone(unit_vectors(len(beta)), ambient_rank=len(beta))]))
        for beta in charts]


def fans_under_test():
    """Every fan the tests build: P1-P4, AkGm, the point, the stacky
    charts with their image fans, the refinement fans, and the face fans
    of seeded cones."""
    fans = [standard_fan("Pn", n=n) for n in range(1, 5)]
    fans += [standard_fan("AkGm", n=n, k=k)
             for n in range(4) for k in range(n + 1)]
    fans.append(standard_fan("point"))
    for sf in stacky_charts_under_test():
        fans += [sf.fan_hat, sf.fan]
    fans += [fan_from_max_cones([Cone([(1, 0), (1, 1)]),
                                 Cone([(1, 1), (0, 1)])]),
             fan_from_max_cones([Cone([(0, 1), (1, 0)]),
                                 Cone([(1, 0), (2, -1)])]),
             fan_from_max_cones([], rank=2)]
    rng = random.Random(61)
    fans += [fan_from_max_cones([c]) for c in seeded_cones(rng, 40)
             if c.is_strictly_convex()]
    return fans


class TestMaximalConesOracle:
    def test_ray_sets_match_geometric_containment(self):
        fans = fans_under_test()
        assert len(fans) > 60
        for fan in fans:
            expected = [c.key for c in reference_maximal_cones(fan)]
            assert [c.key for c in fan.maximal_cones()] == expected, fan
            # the second call reads the kept tuple
            assert [c.key for c in fan.maximal_cones()] == expected

    def test_callers_get_their_own_list(self):
        fan = standard_fan("Pn", n=2)
        fan.maximal_cones().clear()
        assert len(fan.maximal_cones()) == 3


def reference_nerve(fan):
    """Each simplex's cone as the chain of intersect_cones over its
    vertices, the route the ray-set lookup replaced."""
    maxc = fan.maximal_cones()
    out = {}
    for size in range(1, len(maxc) + 1):
        for subset in combinations(range(len(maxc)), size):
            inter = maxc[subset[0]]
            for i in subset[1:]:
                inter = intersect_cones(inter, maxc[i])
            out[frozenset(subset)] = inter
    return out


class TestCechNerveOracle:
    def test_simplices_match_the_intersection_chain(self):
        grid = {r: list(product(range(-1, 2), repeat=r)) for r in range(5)}
        for fan in fans_under_test():
            nerve, expected = cech_nerve(fan), reference_nerve(fan)
            assert list(nerve.simplices) == list(expected), fan
            for s, cone in nerve.simplices.items():
                assert_same_cone(cone, expected[s], grid)
                assert cone in fan


class TestDoubleDescriptionCount:
    """The nerve and a pointed cone's negation run no double description."""

    @pytest.fixture
    def dd_calls(self, monkeypatch):
        calls = []

        def counting(inequalities, rank):
            calls.append(rank)
            return dd_generators(inequalities, rank)

        monkeypatch.setattr("fltzlab.fans.dd_generators", counting)
        return calls

    def test_nerve_of_p4(self, dd_calls):
        p4 = standard_fan("Pn", n=4)
        dd_calls.clear()
        nerve = cech_nerve(p4)
        assert len(nerve.simplices) == 31
        assert dd_calls == []

    def test_negated_pointed_cone(self, dd_calls):
        c = Cone([(1, 0, 0), (1, 2, 0), (1, 1, 3)])
        dd_calls.clear()
        assert c.negated().rays == ((-1, -2, 0), (-1, -1, -3), (-1, 0, 0))
        assert dd_calls == []

    def test_negated_cone_with_lines(self, dd_calls):
        c = Cone([(1, 0), (-1, 0), (1, 1)])
        dd_calls.clear()
        neg = c.negated()
        assert neg.lines == ((1, 0),) and neg.rays == ((0, -1),)
        assert len(dd_calls) == 1


def reference_image_cone(sf, cone_hat):
    return double_dual_cone([sf.beta @ g for g in cone_hat.generators],
                            sf.beta.rows)


def reference_validate_stacky(sf):
    """The per-cone route the ray-set one replaced: build the image of
    every cone of fan_hat through the double dual and compare it with the
    cones of fan."""
    if not cokernel(sf.beta).is_finite:
        return False
    target_keys = {c.key for c in sf.fan.cones}
    image_keys = set()
    for c in sf.fan_hat.cones:
        img = reference_image_cone(sf, c)
        if (img.key not in target_keys or img.dim() != c.dim()
                or img.key in image_keys):
            return False
        image_keys.add(img.key)
    return image_keys == target_keys


def seeded_stacky_fans(rng, count):
    """Stacky fans of seeded 2x2 and 3x3 betas with entries in -2..2 over
    the orthant, Pn and a non-simplicial cone: each with fan_hat itself
    given as the fan, and with the default image fan where the image
    cones form one."""
    square = fan_from_max_cones([Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1),
                                       (0, -1, 1)])])
    hats = {2: [standard_fan("AkGm", n=2, k=2), standard_fan("Pn", n=2)],
            3: [standard_fan("AkGm", n=3, k=3), standard_fan("Pn", n=3),
                square]}
    out = []
    for _ in range(count):
        rank = rng.choice((2, 3))
        beta = IntMatrix([[rng.randint(-2, 2) for _ in range(rank)]
                          for _ in range(rank)])
        hat = rng.choice(hats[rank])
        out.append(StackyFan(beta, hat, hat))
        try:
            out.append(StackyFan(beta, hat))
        except FanError:
            pass
    return out


def stacky_fans_under_test():
    """Every stacky fan the tests build, the seeded ones, and the edge
    cases: det < 0, an infinite cokernel, a kernel, and a given fan that
    is not the image."""
    orthant2 = fan_from_max_cones([Cone([(1, 0), (0, 1)])])
    ray1 = fan_from_max_cones([Cone([(1,)], ambient_rank=1)])
    p2 = standard_fan("Pn", n=2)
    stacks = stacky_charts_under_test() + [
        StackyFan(IntMatrix([[1]]), ray1),
        StackyFan.nonstacky(p2),
        StackyFan.nonstacky(standard_fan("Pn", n=3)),
        StackyFan(IntMatrix.identity(2), fan_from_max_cones(
            [Cone([(1, 0)], ambient_rank=2)])),
        StackyFan(IntMatrix([[0, 1], [1, 0]]), orthant2),
        StackyFan(IntMatrix([[-1, 0], [0, 1]]), p2),
        StackyFan(IntMatrix([[2, 0], [0, 0]]), orthant2,
                  fan_from_max_cones([Cone([(1, 0)], ambient_rank=2)])),
        StackyFan(IntMatrix([[1, 1], [1, 1]]), orthant2),
        StackyFan(IntMatrix([[1, 1]]), orthant2),
        StackyFan(IntMatrix.identity(2), p2, orthant2),
        StackyFan(IntMatrix.identity(2), orthant2, p2),
        StackyFan(IntMatrix([[2, 0], [0, 1]]), p2, p2),
    ]
    return stacks + seeded_stacky_fans(random.Random(71), 40)


class TestValidateStackyOracle:
    def test_matches_the_per_cone_route(self):
        verdicts = []
        for sf in stacky_fans_under_test():
            expected = reference_validate_stacky(sf)
            assert validate_stacky(sf) == expected, sf
            verdicts.append((expected, sf.beta.rows == sf.beta.cols
                             and sf.beta.det() < 0))
        # both verdicts occur, and so does a valid chart with det < 0
        assert sum(ok for ok, _ in verdicts) >= 40, verdicts
        assert sum(not ok for ok, _ in verdicts) >= 40, verdicts
        assert (True, True) in verdicts

    def test_image_cone_keys(self):
        checked = 0
        for sf in stacky_fans_under_test():
            for c in sf.fan_hat.cones:
                assert (sf.image_cone(c).key
                        == reference_image_cone(sf, c).key), (sf, c)
                checked += 1
        assert checked > 400, checked

    def test_stacky_fan_stays_immutable(self):
        sf = stacky_charts_under_test()[0]
        with pytest.raises(AttributeError):
            sf.beta = IntMatrix([[5]])


class TestConeDimOracle:
    def test_dim_is_the_rank_of_the_generators(self):
        rng = random.Random(67)
        checked = 0
        for c in seeded_cones(rng, 120):
            cones = [c, dual_cone(c)]
            if c.is_strictly_convex():
                cones += faces(c)
            for f in cones:
                gens = [list(g) for g in f.generators]
                expected = rational_rank(gens) if gens else 0
                assert f.dim() == expected, f
                assert f.dim() == expected
                checked += 1
        assert checked > 500, checked

    def test_cone_stays_immutable(self):
        c = Cone([(1, 0)], ambient_rank=2)
        assert c.dim() == 1
        with pytest.raises(AttributeError):
            c._dim = 2
        assert c.dim() == 1


class TestTypedErrors:
    @pytest.mark.parametrize("rank", [2.0, "2", True])
    def test_ambient_rank_must_be_an_int(self, rank):
        # 2.0 and '2' used to end in raw TypeErrors, True to be accepted
        with pytest.raises(FanError, match="ambient rank"):
            Cone([(1, 0)], ambient_rank=rank)

    def test_stacky_beta_must_be_an_int_matrix(self):
        # used to end in a raw AttributeError on beta.cols
        fan = fan_from_max_cones([Cone([(1,)], ambient_rank=1)])
        with pytest.raises(FanError, match=r"beta \[\[2\]\] is not an "
                                           "IntMatrix"):
            StackyFan([[2]], fan)

    @pytest.mark.parametrize("fan_hat, fan, message", [
        (Cone([(1,)]), None, "fan_hat Cone"),
        (standard_fan("AkGm", n=1, k=1), Cone([(1,)]), "fan Cone")])
    def test_stacky_fans_must_be_fans(self, fan_hat, fan, message):
        # fan_hat used to end in a raw AttributeError on fan_hat.rank
        with pytest.raises(FanError, match=message):
            StackyFan(IntMatrix([[2]]), fan_hat, fan)

    @pytest.mark.parametrize("call, message", [
        (lambda: cech_nerve([Cone([(1,)])]), r"f \[Cone\(\[\(1,\)\]"),
        (lambda: cech_nerve(None), "f None is not a Fan"),
        (lambda: intersect_cones(Cone([(1,)]), [(1,)]),
         r"b \[\(1,\)\] is not a Cone"),
        (lambda: intersect_cones((1,), Cone([(1,)])),
         r"a \(1,\) is not a Cone"),
        (lambda: is_smooth_cone([(1, 0)]), r"c \[\(1, 0\)\] is not a Cone"),
        (lambda: faces(standard_fan("Pn", n=1)),
         r"c Fan\(rank=1, n_cones=3\) is not a Cone"),
        (lambda: dual_cone("cone"), "c 'cone' is not a Cone")])
    def test_cone_and_fan_arguments_are_checked(self, call, message):
        # each used to end in a raw AttributeError
        with pytest.raises(FanError, match=message):
            call()

    @pytest.mark.parametrize("kind, n, k, message", [
        ("Pn", True, None, "n = True"), ("Pn", 2.0, None, "n = 2.0"),
        ("AkGm", 2, 1.5, "k = 1.5"), ("AkGm", "2", 1, "n = '2'")])
    def test_standard_fan_sizes_must_be_ints(self, kind, n, k, message):
        # True used to build P1; 2.0 and 1.5 ended in raw TypeErrors
        with pytest.raises(FanError, match=message):
            standard_fan(kind, n=n, k=k)

    @pytest.mark.parametrize("call, message", [
        (lambda: Cone([]), "ambient rank needed for a generator-free cone"),
        (lambda: Cone([(1, 2)], ambient_rank=3),
         "generator length does not match ambient rank"),
        (lambda: faces(Cone([(1, 0), (-1, 0)])),
         "faces are only computed for strictly convex cones"),
        (lambda: intersect_cones(Cone([(1,)]), Cone([(1, 0)])),
         "cones live in different ranks"),
        (lambda: fan_from_max_cones([]), "rank needed for an empty fan"),
        (lambda: standard_fan("Pn"), "Pn needs n >= 1"),
        (lambda: standard_fan("Pn", n=0), "Pn needs n >= 1"),
        (lambda: standard_fan("AkGm", n=1, k=2), r"AkGm needs 0 <= k <= n"),
        (lambda: standard_fan("AkGm", n=2), r"AkGm needs 0 <= k <= n"),
        (lambda: StackyFan(IntMatrix.identity(2), standard_fan("Pn", n=1)),
         "fan_hat rank must equal the source rank of beta"),
        (lambda: StackyFan(IntMatrix([[1, 0]]), standard_fan("Pn", n=2),
                           standard_fan("Pn", n=2)),
         "fan rank must equal the target rank of beta")])
    def test_shape_errors(self, call, message):
        with pytest.raises(FanError, match=message):
            call()

    def test_stacky_fan_repr(self):
        sf = StackyFan(IntMatrix([[2]]), standard_fan("AkGm", n=1, k=1))
        assert repr(sf) == "StackyFan(beta=IntMatrix([[2]]), n_cones=2)"

    def test_empty_fan_has_a_one_vertex_nerve(self):
        # the zero cone is the maximal cone of a fan with no other cone
        nerve = cech_nerve(Fan([], rank=2))
        assert nerve.vertices == (Cone((), ambient_rank=2),)
        assert list(nerve.simplices) == [frozenset({0})]
