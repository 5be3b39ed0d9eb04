"""The coherent side, decategorified to lattice-point counting.

Affine monoids with exact membership, the finite hom-category of a
stacky affine chart (characters as objects, shifted-cone lattice points
as homs), cyclic-quiver path counts, isotypic components of monoid
algebras, costandard-sheaf stalks, and exact toric Cech cohomology of
line bundles on projective space as an independent oracle.

Infinite graded pieces are truncated by an explicit degree bound; the
default grading is the coordinate sum cleared to integrality by the
monoid's denominator, which matches path length on the cyclic quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from .fans import Cone, StackyFan, dd_generators, validate_stacky
from .skeleton import UnsupportedConeError, character_lattice_quotient
from .zlin import (
    Character,
    FiniteAbelianGroup,
    IntMatrix,
    LatticeQuotient,
    rational_rank,
    smith_normal_form,
)


class CohError(ValueError):
    pass


class IncompatibleCharacterError(CohError):
    pass


class TruncationError(CohError):
    pass


class ImproperWeightError(CohError):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# graded dimension vectors


@dataclass(frozen=True)
class GradedDims:
    """Dimensions per integer degree 0..bound under a fixed weight functional.

    ``weight`` records the integer coefficient row applied to the
    denominator-cleared coordinates.
    """

    dims: tuple
    bound: int
    weight: tuple

    def __post_init__(self):
        if not _is_int(self.bound):
            raise CohError(f"bound {self.bound!r} is not an integer")
        object.__setattr__(self, "dims", tuple(self.dims))
        for x in self.dims:
            if not _is_int(x):
                raise CohError(f"graded dimension {x!r} is not an integer")
        if len(self.dims) != self.bound + 1:
            raise CohError("dims length must be bound + 1")
        if any(x < 0 for x in self.dims):
            raise CohError("graded dimensions must be nonnegative")

    def __getitem__(self, d):
        return self.dims[d]

    def total(self):
        return sum(self.dims)


# ---------------------------------------------------------------------------
# affine monoids


class AffineMonoid:
    """Lattice points of a cone inside a refined lattice (1/d) Z^r.

    Membership is exact: a point belongs iff it satisfies every cone
    inequality and lies in the stored lattice (a basis refinement of
    (1/d) Z^r when the refined lattice is proper, as for cyclic-quotient
    charts).  ``rank`` and ``denominator`` must be ``int``.
    """

    def __init__(self, rank, inequality_normals, denominator=1, lattice_basis=None):
        if not _is_int(rank) or rank < 0:
            raise CohError(f"rank {rank!r} is not a nonnegative integer")
        if not _is_int(denominator):
            raise CohError(f"denominator {denominator!r} is not an integer")
        self.rank = rank
        rows = []
        for a in inequality_normals:
            for x in a:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise CohError(f"inequality entry {x!r} is not an "
                                   "integer or a Fraction")
            # a positive scale clears the denominators and keeps the cone
            scale = lcm(*(x.denominator for x in a))
            rows.append(tuple(int(x * scale) for x in a))
        self.inequalities = tuple(rows)
        for a in self.inequalities:
            if len(a) != self.rank:
                raise CohError(f"inequality {a!r} has length {len(a)}, "
                               f"expected {self.rank}")
        self.denominator = denominator
        if self.denominator < 1:
            raise CohError("denominator must be positive")
        self._basis_inv = None
        self._lattice_rows, self._lattice_modulus = (), 1
        if lattice_basis is not None:
            cols = [tuple(Fraction(x) for x in c) for c in lattice_basis]
            if len(cols) != self.rank:
                raise CohError("lattice basis must be square")
            from .zlin import rational_inverse
            rows = [[cols[j][i] for j in range(self.rank)]
                    for i in range(self.rank)]
            self._basis_inv = rational_inverse(rows)
            # y = d x is a lattice point iff every row of this integer
            # copy of the inverse pairs with y to a multiple of the modulus
            scale = lcm(*(x.denominator for row in self._basis_inv
                          for x in row))
            self._lattice_rows = tuple(tuple(int(x * scale) for x in row)
                                       for row in self._basis_inv)
            self._lattice_modulus = scale * self.denominator
        rays, lines = dd_generators(self.inequalities, self.rank)
        self._cone_rays = rays
        self._cone_lines = lines

    def contains(self, point):
        point = tuple(Fraction(x) for x in point)
        if len(point) != self.rank:
            return False
        for x in point:
            if (x * self.denominator).denominator != 1:
                return False
        if self._basis_inv is not None:
            coords = [sum(self._basis_inv[i][k] * point[k]
                          for k in range(self.rank)) for i in range(self.rank)]
            if any(c.denominator != 1 for c in coords):
                return False
        return all(sum(a * x for a, x in zip(ineq, point)) >= 0
                   for ineq in self.inequalities)

    def weight_is_proper(self, weight):
        """True iff the weight is strictly positive on the cone minus 0."""
        if self._cone_lines:
            return False
        return all(sum(w * x for w, x in zip(weight, r)) > 0
                   for r in self._cone_rays)

    def default_weight(self):
        return (1,) * self.rank

    def elements_by_degree(self, bound, weight=None):
        """Monoid elements grouped by degree, exactly, for degrees <= bound.

        The degree of x is weight . (d x) with d the denominator; the
        weight must be strictly positive on the cone, otherwise graded
        pieces would be infinite and an :class:`ImproperWeightError` is
        raised.  ``bound`` and the weight entries must be ``int``.

        Candidates are the integer points y = d x of a box spanned by the
        extreme rays.  Each is tested in integers: its degree first, then
        the cone inequalities on y, then the lattice congruence; a
        ``Fraction`` point is built only for an accepted element.
        """
        if not _is_int(bound):
            raise CohError(f"bound {bound!r} is not an integer")
        if weight is None:
            weight = self.default_weight()
        weight = tuple(weight)
        for w in weight:
            if not _is_int(w):
                raise CohError(f"weight entry {w!r} is not an integer")
        if len(weight) != self.rank:
            raise CohError(f"weight {weight!r} has length {len(weight)}, "
                           f"expected {self.rank}")
        if not self.weight_is_proper(weight):
            raise ImproperWeightError(
                "weight functional is not strictly positive on the monoid "
                "cone; supply a proper weight")
        if bound < 0:
            raise CohError("bound must be nonnegative")
        # bounds on y from the extreme rays: y = d x lies in the cone, so
        # with degree <= bound it is a nonnegative ray combination of
        # total weight <= bound
        los = [0] * self.rank
        his = [0] * self.rank
        for r in self._cone_rays:
            w = sum(a * b for a, b in zip(weight, r))
            for i in range(self.rank):
                ratio = Fraction(bound * r[i], w)
                if ratio < los[i]:
                    los[i] = ratio.__floor__()
                if ratio > his[i]:
                    his[i] = ratio.__ceil__()
        out = {d: [] for d in range(bound + 1)}
        d = self.denominator
        inequalities = self.inequalities
        lattice_rows, modulus = self._lattice_rows, self._lattice_modulus
        for y in product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
            deg = sum(w * c for w, c in zip(weight, y))
            if not 0 <= deg <= bound:
                continue
            if any(sum(a * c for a, c in zip(ineq, y)) < 0
                   for ineq in inequalities):
                continue
            if any(sum(a * c for a, c in zip(row, y)) % modulus
                   for row in lattice_rows):
                continue
            out[deg].append(tuple(Fraction(c, d) for c in y))
        return out

    def __repr__(self):
        return (f"AffineMonoid(rank={self.rank}, "
                f"denominator={self.denominator})")


# ---------------------------------------------------------------------------
# the hom category of a stacky affine chart


@dataclass(frozen=True)
class GammaCategory:
    """Characters of the stacky group as objects; homs are lattice points.

    ``projection`` sends a monoid element to the character it acts by;
    hom(chi, chi') is the isotypic component of the monoid at
    ``quotient.representative(chi' - chi)``.
    """

    group: FiniteAbelianGroup
    monoid: AffineMonoid
    quotient: LatticeQuotient

    def projection(self, point) -> Character:
        return self.quotient.character_of(point)

    def objects(self):
        return self.group.characters()


def _adapted_quotient(cone: Cone):
    """Quotient data of the ambient lattice modulo the cone's perp.

    Returns (q, project, ineqs_q): the quotient rank, a projection of
    rational ambient vectors onto deterministic quotient coordinates,
    and the cone's generator pairings rewritten in those coordinates
    (so that pairing a vector with a generator equals pairing its
    projection with the rewritten normal).
    """
    n = cone.ambient_rank
    from .zlin import kernel_basis, rational_inverse
    perp = kernel_basis(IntMatrix([list(g) for g in cone.rays])) if cone.rays else \
        [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if not perp:
        return (n, lambda v: tuple(Fraction(x) for x in v),
                [tuple(g) for g in cone.rays])
    T = IntMatrix.from_columns([list(p) for p in perp], rows=n)
    u = smith_normal_form(T).U  # carries the perp into the leading coordinates
    q = n - len(perp)

    def project(v):
        img = u @ [Fraction(x) for x in v]
        return tuple(img[n - q:])

    u_inv = rational_inverse([list(r) for r in u.entries])
    ineqs_q = []
    for g in cone.rays:
        h = [sum(u_inv[i][j] * g[i] for i in range(n)) for j in range(n)]
        if any(x != 0 for x in h[:n - q]):
            raise CohError("generator does not annihilate the cone's perp")
        ineqs_q.append(tuple(int(x) for x in h[n - q:]))
    return q, project, ineqs_q


def gamma_category(sf: StackyFan) -> GammaCategory:
    """The finite hom-category of a stacky fan of one full-dimensional cone."""
    if not validate_stacky(sf):
        raise CohError("input is not a valid stacky fan")
    maximal = sf.fan_hat.maximal_cones()
    if len(maximal) != 1:
        raise UnsupportedConeError("gamma category needs a single affine chart")
    sigma_hat = maximal[0]
    if not sigma_hat.is_full_dimensional():
        raise UnsupportedConeError(
            "gamma category is only computed for a full-dimensional cone")
    sigma = sf.image_cone(sigma_hat)
    quotient = character_lattice_quotient(sf.beta)
    sup = quotient.superlattice_basis
    monoid = AffineMonoid(
        rank=sf.fan.rank,
        inequality_normals=sigma.rays,
        denominator=lcm(*(x.denominator for col in sup for x in col)),
        lattice_basis=sup,
    )
    return GammaCategory(group=quotient.group, monoid=monoid, quotient=quotient)


def hom_graded(G: GammaCategory, chi: Character, chi_prime: Character,
               bound: int, weight=None) -> GradedDims:
    """Graded dimensions of hom(chi, chi') up to the degree bound.

    The (chi' - chi)-isotypic component: the dimension in degree d counts
    the monoid elements of weight d in the coset of the representative of
    chi' - chi.
    """
    return isotypic_component(G.monoid,
                              G.quotient.representative(chi_prime - chi),
                              bound, weight)


def cyclic_quiver_paths(n: int, i: int, j: int, length_bound: int) -> GradedDims:
    """Path counts on the directed n-cycle, by length, via honest walking."""
    if not (0 <= i < n and 0 <= j < n):
        raise CohError("vertices must lie in 0..n-1")
    if length_bound < 0:
        raise CohError("length bound must be nonnegative")
    counts = []
    state = [0] * n
    state[i] = 1
    for _ in range(length_bound + 1):
        counts.append(state[j])
        state = [state[(v - 1) % n] for v in range(n)]
    return GradedDims(dims=tuple(counts), bound=length_bound, weight=(1,))


def isotypic_component(monoid: AffineMonoid, chi, bound: int,
                       weight=None) -> GradedDims:
    """Graded dimensions of the chi-isotypic piece of the monoid algebra.

    ``chi`` is a rational coset representative; the component collects
    the monoid elements lying in chi + Z^rank.
    """
    chi = tuple(Fraction(x) for x in chi)
    if len(chi) != monoid.rank:
        raise CohError("character has the wrong rank")
    weight = tuple(weight) if weight is not None else monoid.default_weight()
    elements = monoid.elements_by_degree(bound, weight)
    dims = []
    for d in range(bound + 1):
        dims.append(sum(1 for p in elements[d]
                        if all((x - c).denominator == 1
                               for x, c in zip(p, chi))))
    return GradedDims(dims=tuple(dims), bound=bound, weight=weight)


def costandard_stalk(c: Cone, chi, bound: int, denominator=1,
                     weight=None) -> GradedDims:
    """Stalk dimensions of the costandard sheaf of a cone at a torsion point.

    Counted directly as the coset chi + Z^n intersected with the dual
    cone modulo the cone's perp (degree = denominator-cleared coordinate
    sum in the quotient coordinates).  This coset-first route is the
    independent side of the comparison with :func:`isotypic_component`,
    which enumerates the monoid first and filters by coset.  ``bound``
    must be a nonnegative ``int``, ``denominator`` a positive one, and
    ``weight`` (default all ones) q ``int`` entries, q the rank of the
    quotient modulo the cone's perp (the dimension of the cone).
    """
    if not _is_int(bound) or bound < 0:
        raise CohError(f"bound {bound!r} is not a nonnegative integer")
    if not _is_int(denominator) or denominator < 1:
        raise CohError(f"denominator {denominator!r} is not a positive integer")
    if not c.is_strictly_convex():
        raise CohError("costandard stalks need a strictly convex cone")
    chi = tuple(Fraction(x) for x in chi)
    n = c.ambient_rank
    if len(chi) != n:
        raise CohError("character has the wrong rank")
    for x in chi:
        if (x * denominator).denominator != 1:
            raise IncompatibleCharacterError(
                f"character {chi} is not a torsion point of order dividing "
                f"{denominator}")
    q, project, ineqs_q = _adapted_quotient(c)
    chi_q = project(chi)
    weight = tuple(weight) if weight is not None else (1,) * q
    for w in weight:
        if not _is_int(w):
            raise CohError(f"weight entry {w!r} is not an integer")
    if len(weight) != q:
        raise CohError(f"weight {weight!r} has length {len(weight)}, "
                       f"expected the quotient rank {q}")
    dims = [0] * (bound + 1)
    if q == 0:
        dims[0] = 1  # a single coset class, sitting in degree zero
        return GradedDims(dims=tuple(dims), bound=bound, weight=weight)
    rays_q, lines_q = dd_generators(ineqs_q, q)
    if lines_q:
        raise CohError("quotient cone is not pointed")
    for r in rays_q:
        if sum(w * x for w, x in zip(weight, r)) <= 0:
            raise ImproperWeightError(
                "weight is not strictly positive on the quotient cone")
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
        if deg.denominator != 1:
            raise IncompatibleCharacterError(
                f"character {chi} has degrees outside (1/{denominator}) Z")
        deg = int(deg)
        if not 0 <= deg <= bound:
            continue
        if all(sum(a * x for a, x in zip(ineq, z)) >= 0 for ineq in ineqs_q):
            dims[deg] += 1
    return GradedDims(dims=tuple(dims), bound=bound, weight=weight)


# ---------------------------------------------------------------------------
# Cech cohomology of line bundles on projective space


@lru_cache(maxsize=None)
def _pattern_cohomology(n, missing):
    """Cohomology ranks of the Cech complex for one section pattern.

    ``missing`` is the frozen set of rays whose section inequality
    fails; a character contributes to the chart intersection of a
    subset S of the n+1 maximal cones iff S contains ``missing``.
    The complex has one generator per admissible S with the usual
    alternating-sign differential, and ranks are computed exactly.
    """
    vertices = list(range(n + 1))
    admissible = {}
    for size in range(1, n + 2):
        for s in combinations(vertices, size):
            if missing <= set(s):
                admissible.setdefault(size - 1, []).append(s)
    dims = []
    ranks = {}
    for p in range(n + 1):
        basis_p = admissible.get(p, [])
        basis_q = admissible.get(p + 1, [])
        index_p = {s: i for i, s in enumerate(basis_p)}
        mat = [[0] * len(basis_p) for _ in range(len(basis_q))]
        for row, t in enumerate(basis_q):
            for pos, vtx in enumerate(t):
                face = t[:pos] + t[pos + 1:]
                if face in index_p:
                    mat[row][index_p[face]] += (-1) ** pos
        ranks[p] = rational_rank(mat) if (basis_p and basis_q) else 0
    out = []
    for p in range(n + 1):
        dim_p = len(admissible.get(p, []))
        out.append(dim_p - ranks.get(p, 0) - ranks.get(p - 1, 0))
    return tuple(out)


def _sign_region(n, d, box_bound, missing):
    """Characters m of the box [-box_bound, box_bound]^n with this missing set.

    For i < n, ray i is missing iff m_i <= -1; the last ray is missing
    iff sum(m) >= d + 1.  Each coordinate runs over its sign range,
    clipped to the box and pruned by the partial sum so that every
    prefix extends to a character of the region; characters come in
    lexicographic order.
    """
    los = [-box_bound if i in missing else 0 for i in range(n)]
    his = [-1 if i in missing else box_bound for i in range(n)]
    # the least and the greatest sum of the coordinates k..n-1
    rest_lo = [sum(los[k:]) for k in range(n + 1)]
    rest_hi = [sum(his[k:]) for k in range(n + 1)]
    last_missing = n in missing
    m = [0] * n

    def extend(k, s):
        if k == n:
            yield tuple(m)
            return
        lo, hi = los[k], his[k]
        if last_missing:
            lo = max(lo, d + 1 - s - rest_hi[k + 1])
        else:
            hi = min(hi, d - s - rest_lo[k + 1])
        for x in range(lo, hi + 1):
            m[k] = x
            yield from extend(k + 1, s + x)

    return extend(0, 0)


def pn_line_bundle_cohomology(n: int, d: int, box_bound=None) -> tuple:
    """Exact dims of H^0..H^n of the degree-d line bundle on P^n.

    Computed characterwise over the Cech cover by the n+1 maximal cones.
    A character's missing set is the set of rays whose section inequality
    it fails; the Cech complex of a missing set M has exact integer ranks
    on its +/-1 incidence matrices.  For every M whose complex has
    nonzero cohomology, the characters of the box with missing set M are
    enumerated by nested integer ranges and counted.  The character box
    must contain every contributing character or a
    :class:`TruncationError` naming the lexicographically first
    contributing character on the box boundary is raised.  ``n``, ``d``
    and ``box_bound`` (default |d| + 1) must be ``int``.
    """
    if box_bound is None and _is_int(d):
        box_bound = abs(d) + 1
    for name, value in (("n", n), ("d", d), ("box_bound", box_bound)):
        if not _is_int(value):
            raise CohError(f"{name} = {value!r} is not an integer")
    if n < 1:
        raise CohError("projective space needs n >= 1")
    if box_bound < abs(d):
        raise TruncationError(
            f"box bound {box_bound} is smaller than |d| = {abs(d)}; "
            "contributing characters would be cut off")
    totals = [0] * (n + 1)
    first_on_boundary = None
    for size in range(n + 2):
        for missing in combinations(range(n + 1), size):
            contrib = _pattern_cohomology(n, frozenset(missing))
            if not any(contrib):
                continue
            count = 0
            for m in _sign_region(n, d, box_bound, missing):
                if max(abs(x) for x in m) == box_bound:
                    if first_on_boundary is None or m < first_on_boundary:
                        first_on_boundary = m
                    break
                count += 1
            for i, x in enumerate(contrib):
                totals[i] += count * x
    if first_on_boundary is not None:
        raise TruncationError(
            f"character {first_on_boundary} on the box boundary "
            "contributes; enlarge box_bound")
    return tuple(totals)


def euler_pairing_coherent(n: int, a: int, b: int) -> int:
    """Alternating sum of cohomology dims of O(b - a) on P^n; exact."""
    e = b - a
    coh = pn_line_bundle_cohomology(n, e, abs(e) + 1)
    return sum((-1) ** i * x for i, x in enumerate(coh))
