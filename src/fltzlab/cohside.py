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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mod, mul, sub

from .fans import Cone, StackyFan, dd_generators, validate_stacky
from .skeleton import UnsupportedConeError, character_lattice_quotient
from .zlin import (
    Character,
    FiniteAbelianGroup,
    IntMatrix,
    LatticeQuotient,
    _int_inverse,
    check_exact,
    check_ints,
    kernel_basis,
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


# ---------------------------------------------------------------------------
# graded dimension vectors


@dataclass(frozen=True)
class GradedDims:
    """Dimensions per integer degree 0..bound under a fixed weight functional.

    ``weight`` records the integer coefficient row applied to the
    denominator-cleared coordinates, as a tuple of ``int``.
    """

    dims: tuple
    bound: int
    weight: tuple

    def __post_init__(self):
        if type(self.bound) is not int:
            raise CohError(f"bound {self.bound!r} is not an integer")
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        check_ints(dims, CohError, "graded dimension")
        if len(dims) != self.bound + 1:
            raise CohError("dims length must be bound + 1")
        if min(dims, default=0) < 0:
            raise CohError("graded dimensions must be nonnegative")
        if type(self.weight) is not tuple:
            raise CohError(f"weight {self.weight!r} is not a tuple")
        check_ints(self.weight, CohError, "weight entry")

    @classmethod
    def _of(cls, dims, bound, weight):
        """Graded dims taken as they are: ``dims`` a tuple of bound + 1
        nonnegative ``int`` counts, ``bound`` and ``weight`` already
        checked, for values computed from checked inputs."""
        g = object.__new__(cls)
        g.__dict__.update(dims=dims, bound=bound, weight=weight)
        return g

    def __getitem__(self, d):
        return self.dims[d]


# ---------------------------------------------------------------------------
# integer points of a clipped box


def _ranges(los, his, clips, base=None, stride=1):
    """The integer points of a box cut by linear clips, as ranges of the
    last coordinate.

    The points are the y with los <= y <= his (r >= 1 coordinates),
    row . y + c >= 0 for every clip (row, c) and, if ``base`` is given,
    y = base mod ``stride``.  Returns ``(head, lo, hi)`` in lexicographic
    order of the head, each for the nonempty range of points head + (t,),
    t in range(lo, hi + 1, stride).  At each coordinate every clip is
    checked against the most the later coordinates can add in the box,
    so a head grows only while each clip can still hold.
    """
    last = len(los) - 1

    def span(k, cuts, x):
        # the range of coordinate k once coordinate k - 1 is x (0 at k = 0);
        # a cut (row, tops, s) holds a clip's row, the most each coordinate
        # adds to its pairing in the box, and its slack for coordinate k
        # less row[k - 1] x: its constant, the pairing of the coordinates
        # before k - 1 and the most the coordinates after k can add
        lo, hi = los[k], his[k]
        for row, _, s in cuts:
            s += row[k - 1] * x
            a = row[k]
            if a > 0:
                s = -(s // a)
                if s > lo:
                    lo = s
            elif a < 0:
                s //= -a
                if s < hi:
                    hi = s
            elif s < 0:
                return 1, 0
        if base is not None:
            lo += (base[k] - lo) % stride
        return lo, hi

    def extend(k, head, cuts, x):
        # head holds the coordinates before k, the last of them x
        lo, hi = span(k, cuts, x)
        if lo > hi:
            return
        cuts = [(row, tops, s + row[k - 1] * x - tops[k + 1])
                for row, tops, s in cuts]
        if k + 1 < last:
            for y in range(lo, hi + 1, stride):
                extend(k + 1, head + (y,), cuts, y)
            return
        # the last coordinate's ranges, with no call per head
        for y in range(lo, hi + 1, stride):
            t_lo, t_hi = span(last, cuts, y)
            if t_lo <= t_hi:
                out.append((head + (y,), t_lo, t_hi))

    cuts = []
    for row, c in clips:
        tops = [a * (hi if a > 0 else lo) for a, lo, hi in zip(row, los, his)]
        cuts.append((row, tops, c + sum(tops) - tops[0]))
    if not last:
        lo, hi = span(0, cuts, 0)
        return [((), lo, hi)] if lo <= hi else []
    out = []
    extend(0, (), cuts, 0)
    return out


def _ray_box(rays, weight, bound):
    """Bounds (los, his) on the integral y of weight . y <= bound in the
    pointed cone of ``rays``, the weight positive on each: y lies in the
    box of 0 and the points bound r / (weight . r), rounded inward."""
    los = [0] * len(weight)
    his = [0] * len(weight)
    for r in rays:
        w = sum(map(mul, weight, r))
        for i, x in enumerate(r):
            los[i] = min(los[i], -(-(bound * x) // w))
            his[i] = max(his[i], bound * x // w)
    return los, his


# ---------------------------------------------------------------------------
# affine monoids


class AffineMonoid:
    """Lattice points of a cone inside a lattice L with Z^r ⊆ L ⊆ (1/d) Z^r.

    ``lattice`` is the :class:`LatticeQuotient` whose superlattice is L,
    as for cyclic-quotient charts, or None for L = Z^r, and is kept as
    given; ``denominator`` is its d (1 for Z^r).  Membership is exact: a
    point belongs iff it satisfies every cone inequality and lies in L,
    tested in integers on y = d x through the quotient's integer basis
    inverse.  ``rank`` must be an ``int``.
    """

    def __init__(self, rank, inequality_normals, lattice=None):
        if type(rank) is not int or rank < 0:
            raise CohError(f"rank {rank!r} is not a nonnegative integer")
        self.rank = rank
        rows = []
        for a in inequality_normals:
            check_exact(a, CohError, "inequality entry")
            # a positive scale clears the denominators and keeps the cone
            scale = lcm(*(x.denominator for x in a))
            rows.append(tuple(int(x * scale) for x in a))
        self.inequalities = tuple(rows)
        for a in self.inequalities:
            if len(a) != self.rank:
                raise CohError(f"inequality {a!r} has length {len(a)}, "
                               f"expected {self.rank}")
        self.lattice = lattice
        self._denominator = 1
        self._lattice_rows, self._lattice_modulus = (), 1
        if lattice is not None:
            if not isinstance(lattice, LatticeQuotient):
                raise CohError(f"lattice {lattice!r} is not a LatticeQuotient")
            if len(lattice.superlattice_basis) != rank:
                raise CohError(f"lattice {lattice!r} has rank "
                               f"{len(lattice.superlattice_basis)}, expected "
                               f"{rank}")
            # the basis is s / d with s^-1 = B / q, so y = d x is a lattice
            # point iff every row of B pairs with y to a multiple of q
            self._denominator = lattice.denominator
            self._lattice_rows, self._lattice_modulus = lattice._inverse
        rays, lines = dd_generators(self.inequalities, self.rank)
        self._cone_rays = rays
        self._cone_lines = lines
        self._coset_tables = {}
        self._proper_weights = set()

    @property
    def denominator(self):
        """The lattice's denominator d: L ⊆ (1/d) Z^rank."""
        return self._denominator

    def contains(self, point):
        """True iff ``point`` (``int`` or ``Fraction`` coordinates) lies in
        the monoid."""
        point = tuple(point)
        check_exact(point, CohError, "coordinate")
        if len(point) != self.rank:
            return False
        d = self.denominator
        if any(d % x.denominator for x in point):
            return False
        # the cone and the lattice tested on y = d x, in integers
        y = [x.numerator * (d // x.denominator) for x in point]
        if any(sum(map(mul, row, y)) % self._lattice_modulus
               for row in self._lattice_rows):
            return False
        return all(sum(map(mul, ineq, y)) >= 0 for ineq in self.inequalities)

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
        raised.  ``bound`` and the weight entries must be ``int``.  The
        points are those of :meth:`_points`, in its order, each
        coordinate value's ``Fraction`` built once per call.
        """
        weight = self._checked_grading(bound, weight)
        out = {d: [] for d in range(bound + 1)}
        points = list(self._points(bound, weight))
        d = self.denominator
        values = {c: Fraction(c, d) for _, y in points for c in y}
        for deg, y in points:
            out[deg].append(tuple(map(values.__getitem__, y)))
        return out

    def _points(self, bound, weight):
        """``(degree, y)`` for each monoid element x of degree <= bound,
        with y = d x as an ``int`` tuple, d the denominator, under a
        grading checked by :meth:`_checked_grading`.

        The y are the points :func:`_ranges` finds, in its order, in the
        :func:`_ray_box` of the cone's rays cut by the cone inequalities
        and degree <= bound (a proper weight makes every degree in the
        cone >= 0); only those meet the lattice congruence.  For a fixed
        head, the t with c + a t = 0 mod q on a row (c the row's pairing
        with the head, a its last entry) form one class modulo
        q / gcd(a, q) or none, so on every row they form one class
        modulo the lcm P of those periods or none: the congruence is
        tested on at most the first P values of each range, and from
        the first t that meets it the range is stepped by P.
        """
        if not self.rank:
            yield 0, ()
            return
        clips = [(a, 0) for a in self.inequalities]
        clips.append((tuple(-w for w in weight), bound))
        lattice_rows, modulus = self._lattice_rows, self._lattice_modulus
        period = lcm(*(modulus // gcd(row[-1], modulus)
                       for row in lattice_rows))
        for head, lo, hi in _ranges(
                *_ray_box(self._cone_rays, weight, bound), clips):
            start = sum(map(mul, weight, head))
            residues = [(sum(map(mul, row, head)), row[-1])
                        for row in lattice_rows]
            for first in range(lo, min(hi, lo + period - 1) + 1):
                if not any((c + a * first) % modulus for c, a in residues):
                    for t in range(first, hi + 1, period):
                        yield start + weight[-1] * t, head + (t,)
                    break

    def _checked_grading(self, bound, weight):
        """The weight as a tuple (default all ones) once bound and weight pass.

        ``bound`` must be a nonnegative ``int`` and the weight ``rank``
        ``int`` entries, strictly positive on the cone.  A weight that
        passed is remembered, after the type and length checks, so its
        cone test runs once per monoid; once the default weight has
        passed, it is returned after the bound check alone.
        """
        if type(bound) is not int:
            raise CohError(f"bound {bound!r} is not an integer")
        if weight is None:
            weight = self.default_weight()
            if weight in self._proper_weights:
                if bound < 0:
                    raise CohError("bound must be nonnegative")
                return weight
        weight = tuple(weight)
        check_ints(weight, CohError, "weight entry")
        if len(weight) != self.rank:
            raise CohError(f"weight {weight!r} has length {len(weight)}, "
                           f"expected {self.rank}")
        if weight not in self._proper_weights:
            if not self.weight_is_proper(weight):
                raise ImproperWeightError(
                    "weight functional is not strictly positive on the "
                    "monoid cone; supply a proper weight")
            self._proper_weights.add(weight)
        if bound < 0:
            raise CohError("bound must be nonnegative")
        return weight

    def _coset_dims(self, bound, weight):
        """The :class:`GradedDims` of the monoid's elements in each coset
        of Z^rank, and the zero one every other coset reads.

        A coset is keyed by y mod d with y = d x, which is d chi mod d
        for x in chi + Z^rank.  The table is filled by one :meth:`_points`
        enumeration per (bound, weight) and kept for the life of the
        monoid.  The caller passes a grading checked by
        :meth:`_checked_grading`: 1.0 and True hash as 1 and must never
        reach the key.
        """
        entry = self._coset_tables.get((bound, weight))
        if entry is None:
            d = self.denominator
            counts = {}
            for deg, y in self._points(bound, weight):
                key = tuple(c % d for c in y)
                dims = counts.get(key)
                if dims is None:
                    dims = counts[key] = [0] * (bound + 1)
                dims[deg] += 1
            entry = ({key: GradedDims._of(tuple(dims), bound, weight)
                      for key, dims in counts.items()},
                     GradedDims._of((0,) * (bound + 1), bound, weight))
            self._coset_tables[bound, weight] = entry
        return entry

    def __repr__(self):
        return (f"AffineMonoid(rank={self.rank}, "
                f"denominator={self.denominator})")


def _coset_key(x, d):
    """The key d x mod d of the coset x + Z^rank, for x in (1/d) Z^rank
    with ``int`` or ``Fraction`` entries, computed in integers."""
    return tuple(c.numerator * (d // c.denominator) % d for c in x)


# ---------------------------------------------------------------------------
# the hom category of a stacky affine chart


@dataclass(frozen=True)
class GammaCategory:
    """Characters of the stacky group as objects; homs are lattice points.

    ``quotient`` is the chart's lattice, ``monoid`` must be built on it
    (its ``lattice`` is ``quotient``) and ``group`` must be
    ``quotient.group``, or a :class:`CohError` is raised.
    ``projection`` sends a monoid element to the character it acts by;
    hom(chi, chi') is the isotypic component of the monoid at
    ``quotient.representative(chi' - chi)``.  ``_coset_keys`` maps the
    components of each character to the monoid's coset key of its
    representative, filled once per chart.
    """

    group: FiniteAbelianGroup
    monoid: AffineMonoid
    quotient: LatticeQuotient
    _coset_keys: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.quotient, LatticeQuotient):
            raise CohError(f"quotient {self.quotient!r} is not a "
                           "LatticeQuotient")
        if not isinstance(self.monoid, AffineMonoid) or \
                self.monoid.lattice is not self.quotient:
            raise CohError(f"monoid {self.monoid!r} is not built on the "
                           f"quotient {self.quotient!r}")
        if self.group is not self.quotient.group:
            raise CohError(f"group {self.group!r} is not the group of the "
                           f"quotient {self.quotient!r}")
        # the monoid's denominator is the quotient's, so the key of a
        # representative y / d is y mod d
        d = self.monoid.denominator
        object.__setattr__(self, "_coset_keys", {
            comps: tuple(c % d for c in y)
            for comps, y in self.quotient._numerators.items()})

    def projection(self, point) -> Character:
        return self.quotient.character_of(point)


def _adapted_quotient(cone: Cone):
    """Quotient data of the ambient lattice modulo the cone's perp.

    Returns (q, project, ineqs_q, rays_q, lines_q): the quotient rank, q
    integer rows that project ambient vectors onto deterministic
    quotient coordinates (the i-th coordinate of v is the pairing of row
    i with v), the cone's generator pairings rewritten in those
    coordinates (so that pairing a vector with a generator equals
    pairing its projection with the rewritten normal), and the rays and
    lines of the quotient cone they cut out.
    """
    n = cone.ambient_rank
    if cone.dim() == n:
        # the rays span, so the perp is 0
        q, project = n, IntMatrix.identity(n).entries
        ineqs_q = [tuple(g) for g in cone.rays]
    else:
        perp = kernel_basis(IntMatrix([list(g) for g in cone.rays])) \
            if cone.rays else [tuple(int(i == j) for j in range(n))
                               for i in range(n)]
        T = IntMatrix.from_columns([list(p) for p in perp])
        # U carries the perp into the leading coordinates
        u = smith_normal_form(T).U
        q = n - len(perp)
        project = u.entries[n - q:]
        # U is unimodular, so its inverse is integral
        u_inv, _ = _int_inverse(u.entries)
        # the first n - q columns of U^-1 span the perp, which every
        # generator annihilates, so only the last q pairings can be nonzero
        ineqs_q = [tuple(sum(u_inv[i][j] * g[i] for i in range(n))
                         for j in range(n - q, n)) for g in cone.rays]
    return (q, project, ineqs_q, *dd_generators(ineqs_q, q))


def gamma_category(sf: StackyFan) -> GammaCategory:
    """The finite hom-category of a stacky fan of one full-dimensional cone."""
    if not isinstance(sf, StackyFan):
        raise CohError(f"sf {sf!r} is not a StackyFan")
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
    monoid = AffineMonoid(sf.fan.rank, sigma.rays, lattice=quotient)
    return GammaCategory(group=quotient.group, monoid=monoid, quotient=quotient)


def hom_graded(G: GammaCategory, chi: Character, chi_prime: Character,
               bound: int, weight=None) -> GradedDims:
    """Graded dimensions of hom(chi, chi') up to the degree bound.

    The (chi' - chi)-isotypic component: the dimension in degree d counts
    the monoid elements of weight d in the coset of the representative of
    chi' - chi.  It is the monoid's kept :class:`GradedDims` for that
    coset under (bound, weight), read through the chart's coset keys, so
    it is the value :func:`isotypic_component` gives at the
    representative.  A ``chi`` or ``chi_prime`` that is not a character
    of ``G.group`` is a :class:`ZlinError` naming the argument.
    """
    if not isinstance(G, GammaCategory):
        raise CohError(f"G {G!r} is not a GammaCategory")
    group = G.group
    group.check_character(chi, "chi")
    group.check_character(chi_prime, "chi_prime")
    weight = G.monoid._checked_grading(bound, weight)
    key = G._coset_keys[tuple(map(mod, map(
        sub, chi_prime.components, chi.components), group.invariant_factors))]
    table, zero = G.monoid._coset_dims(bound, weight)
    return table.get(key, zero)


def cyclic_quiver_paths(n: int, i: int, j: int, length_bound: int) -> GradedDims:
    """Path counts on the directed n-cycle, by length, from the one walk.

    Vertex v has the one arrow v -> v + 1 mod n, so the paths out of
    ``i`` are the steps of one walk, and the path of length L counts
    toward j iff the walk stands at j after L steps: first after
    (j - i) mod n steps, then every n steps.  ``n``, ``i``, ``j`` and
    ``length_bound`` must be ``int``, with n >= 1.
    """
    for name, value in (("n", n), ("i", i), ("j", j),
                        ("length_bound", length_bound)):
        if type(value) is not int:
            raise CohError(f"{name} = {value!r} is not an integer")
    if n < 1:
        raise CohError("the cycle needs n >= 1")
    if not (0 <= i < n and 0 <= j < n):
        raise CohError("vertices must lie in 0..n-1")
    if length_bound < 0:
        raise CohError("length bound must be nonnegative")
    counts = [0] * (length_bound + 1)
    first = (j - i) % n
    counts[first::n] = [1] * len(range(first, length_bound + 1, n))
    return GradedDims._of(tuple(counts), length_bound, (1,))


def isotypic_component(monoid: AffineMonoid, chi, bound: int,
                       weight=None) -> GradedDims:
    """Graded dimensions of the chi-isotypic piece of the monoid algebra.

    ``chi`` is a rational coset representative with ``int`` or
    ``Fraction`` entries; the component collects the monoid elements
    lying in chi + Z^rank.  It is the monoid's kept :class:`GradedDims`
    for chi's coset under (bound, weight), so the monoid is enumerated
    once for all characters and every call for that coset returns the
    same object; a chi with d chi not integral, d the denominator, meets
    no element.  The coset key d chi mod d is computed in integers.
    """
    if not isinstance(monoid, AffineMonoid):
        raise CohError(f"monoid {monoid!r} is not an AffineMonoid")
    chi = tuple(chi)
    check_exact(chi, CohError, "character entry")
    if len(chi) != monoid.rank:
        raise CohError("character has the wrong rank")
    weight = monoid._checked_grading(bound, weight)
    table, zero = monoid._coset_dims(bound, weight)
    d = monoid.denominator
    if any(d % x.denominator for x in chi):
        return zero
    return table.get(_coset_key(chi, d), zero)


def costandard_stalk(c: Cone, chi, bound: int, denominator=1,
                     weight=None) -> GradedDims:
    """Stalk dimensions of the costandard sheaf of a cone at a torsion point.

    Counted directly as the coset chi + Z^n intersected with the dual
    cone modulo the cone's perp (degree = denominator-cleared coordinate
    sum in the quotient coordinates).  The count runs in integers over
    y = d z, d the denominator, for z in chi_q + Z^q: :func:`_ranges`
    steps y through d chi_q + d Z^q inside the :func:`_ray_box` of the
    quotient cone, clipped by every generator pairing >= 0 and by
    degree = weight . y <= bound.  This coset-first route is the
    independent side of the comparison with
    :func:`isotypic_component`, which enumerates the monoid first.
    ``chi`` must have ``int`` or ``Fraction`` entries, ``bound`` be a
    nonnegative ``int``, ``denominator`` a positive one, and ``weight``
    (default all ones) q ``int`` entries, q the rank of the quotient
    modulo the cone's perp (the dimension of the cone).  ``c`` must be a
    :class:`Cone`.
    """
    if not isinstance(c, Cone):
        raise CohError(f"c {c!r} is not a Cone")
    if type(bound) is not int or bound < 0:
        raise CohError(f"bound {bound!r} is not a nonnegative integer")
    if type(denominator) is not int or denominator < 1:
        raise CohError(f"denominator {denominator!r} is not a positive integer")
    if not c.is_strictly_convex():
        raise CohError("costandard stalks need a strictly convex cone")
    chi = tuple(chi)
    check_exact(chi, CohError, "character entry")
    if len(chi) != c.ambient_rank:
        raise CohError("character has the wrong rank")
    if any(denominator % x.denominator for x in chi):
        raise IncompatibleCharacterError(
            f"character {chi} is not a torsion point of order dividing "
            f"{denominator}")
    # a fact of the cone, kept on it: its stalks share one double
    # description
    q, project, ineqs_q, rays_q, _ = c._memo("_quotient", _adapted_quotient)
    # the projection is integral, so d chi_q is the projection of d chi
    dchi = [x.numerator * (denominator // x.denominator) for x in chi]
    base = tuple(sum(a * y for a, y in zip(row, dchi)) for row in project)
    weight = tuple(weight) if weight is not None else (1,) * q
    check_ints(weight, CohError, "weight entry")
    if len(weight) != q:
        raise CohError(f"weight {weight!r} has length {len(weight)}, "
                       f"expected the quotient rank {q}")
    if q == 0:  # a single coset class, sitting in degree zero
        return GradedDims._of((1,) + (0,) * bound, bound, weight)
    # the rewritten generators span Q^q, so the cone they cut out is the
    # dual of a full-dimensional cone: it is pointed (no lines), and its
    # rays box in every y of bounded degree
    for r in rays_q:
        if sum(map(mul, weight, r)) <= 0:
            raise ImproperWeightError(
                "weight is not strictly positive on the quotient cone")
    # each generator pairing and degree <= bound; degree >= 0 follows,
    # as the weight is positive on the rays
    clips = [(a, 0) for a in ineqs_q]
    clips.append((tuple(-w for w in weight), bound))
    dims = [0] * (bound + 1)
    for head, lo, hi in _ranges(*_ray_box(rays_q, weight, bound), clips,
                                base, denominator):
        start = sum(map(mul, weight, head))
        for t in range(lo, hi + 1, denominator):
            dims[start + weight[-1] * t] += 1
    return GradedDims._of(tuple(dims), bound, weight)


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


def pn_line_bundle_cohomology(n: int, d: int, box_bound=None) -> tuple:
    """Exact dims of H^0..H^n of the degree-d line bundle on P^n.

    Computed characterwise over the Cech cover by the n+1 maximal cones.
    A character's missing set is the set of rays whose section inequality
    it fails; the Cech complex of a missing set M has exact integer ranks
    on its +/-1 incidence matrices.  For every M whose complex has
    nonzero cohomology, the characters of the box with missing set M are
    counted by :func:`_ranges`: each coordinate m_i, i < n, in its sign
    range (ray i is missing iff m_i <= -1), clipped by the one sum the
    last ray reads (it is missing iff sum(m) >= d + 1), and the last
    coordinate's range by its length.  The character box must
    contain every contributing character or a :class:`TruncationError`
    naming the lexicographically first contributing character on the box
    boundary is raised.  ``n``, ``d`` and ``box_bound`` (default
    |d| + 1) must be ``int``.
    """
    if box_bound is None and type(d) is int:
        box_bound = abs(d) + 1
    for name, value in (("n", n), ("d", d), ("box_bound", box_bound)):
        if type(value) is not int:
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
            los = [-box_bound if i in missing else 0 for i in range(n)]
            his = [-1 if i in missing else box_bound for i in range(n)]
            # sum(m) >= d + 1 if the last ray is missing, else sum(m) <= d
            clip = ((1,) * n, -d - 1) if n in missing else ((-1,) * n, d)
            count = 0
            for head, lo, hi in _ranges(los, his, [clip]):
                inside = box_bound not in head and -box_bound not in head
                if inside and -box_bound < lo and hi < box_bound:
                    count += hi - lo + 1
                    continue
                # the range's first character on the box boundary
                m = head + (hi if inside and lo > -box_bound else lo,)
                if first_on_boundary is None or m < first_on_boundary:
                    first_on_boundary = m
                break
            for i, x in enumerate(contrib):
                totals[i] += count * x
    if first_on_boundary is not None:
        raise TruncationError(
            f"character {first_on_boundary} on the box boundary "
            "contributes; enlarge box_bound")
    return tuple(totals)


def euler_pairing_coherent(n: int, a: int, b: int) -> int:
    """Alternating sum of cohomology dims of O(b - a) on P^n; exact.

    ``a`` and ``b`` must be ``int``; ``n`` is checked as in
    :func:`pn_line_bundle_cohomology`.
    """
    check_ints((a,), CohError, "a =")
    check_ints((b,), CohError, "b =")
    e = b - a
    coh = pn_line_bundle_cohomology(n, e, abs(e) + 1)
    return sum((-1) ** i * x for i, x in enumerate(coh))
