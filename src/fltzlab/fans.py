"""Rational polyhedral cones, fans, stacky fans, and Cech nerves.

All cone computations are exact.  A cone keeps its canonical rays and
lines and an H-representation.  The canonical form (primitive integer
generators sorted lexicographically) is the output of a double
description pass on primitive integer vectors, which decides adjacency
of rays from their zero sets rather than by rank computations.  A
pointed cone built from generators takes one pass, for its facet
normals, and its rays from its generators' zero sets over them.  Faces
are read off the incidence of rays and inequalities, and their
dimensions off the face lattice.  Desk-scale only; no attempt at
large-dimension performance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .zlin import (
    IntMatrix,
    check_exact,
    check_ints,
    cokernel,
    kernel_basis,
    rational_rank,
    smith_normal_form,
)


class FanError(ValueError):
    pass


def _divide_content(vec):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def primitivize(vec):
    """Scale a rational vector to a primitive integer vector."""
    vec = tuple(vec)
    if all(type(x) is int for x in vec):
        return _divide_content(vec)
    check_exact(vec, FanError, "vector entry")
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs))
    return _divide_content([int(f * denom) for f in fracs])


def _dot(a, b):
    return sum(map(mul, a, b))


# ---------------------------------------------------------------------------
# double description: H-representation -> (rays, lines)


def _reduce_mod_lines(vec, lines):
    """Reduce an integer vector modulo integer line generators (deterministic)."""
    v = list(vec)
    for line in lines:
        pivot = next((i for i, x in enumerate(line) if x != 0), None)
        if pivot is None:
            continue
        q = v[pivot] // line[pivot]
        v = [a - q * b for a, b in zip(v, line)]
    return tuple(v)


def _canonical_lines(lines, rank):
    """Canonical integer basis of the span of the given vectors."""
    if not lines:
        return []
    # saturated basis: kernel of the annihilator of the span
    ann = kernel_basis(IntMatrix([list(l) for l in lines]))
    if not ann:
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    else:
        basis = kernel_basis(IntMatrix([list(a) for a in ann]))
    # column-style echelon normalization for determinism
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
        # pivot[col] > 0, so each row is only rescaled positively
        basis = [_divide_content([pivot[col] * a - b[col] * p
                                  for a, p in zip(b, pivot)]) for b in basis]
        basis = [b for b in basis if any(x != 0 for x in b)]
    return norm


def _eliminate(pl, vec, d, pivot):
    """Primitive positive multiple of vec - (d / pl) * pivot, for pl > 0."""
    if d == 0:
        return vec
    return _divide_content([pl * x - d * y for x, y in zip(vec, pivot)])


def dd_generators(inequalities, rank):
    """Generators of {x : a.x >= 0 for all a} as (rays, lines).

    Double description on primitive integer vectors.  Each ray carries its
    zero set over the inequalities processed so far, as a bit mask.  Two
    rays on opposite sides of a new hyperplane are combined only when they
    are adjacent, which their zero sets decide without rank computations
    (Fukuda-Prodon, "Double description method revisited", 1996).  Every
    vector is a positive multiple of the one exact rational elimination
    gives, so signs, zero sets and the canonical output are the same.
    """
    ineqs = []
    for a in inequalities:
        a = tuple(a)
        if len(a) != rank:
            raise FanError(f"inequality {a!r} has length {len(a)}, "
                           f"expected {rank}")
        a = primitivize(a)
        if any(a):
            ineqs.append(a)
    lines = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays = []
    zeros = []  # bit i of zeros[k] is set iff ineqs[i] . rays[k] == 0

    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        dots = [_dot(a, l) for l in lines]
        pivot_idx = next((i for i, v in enumerate(dots) if v != 0), None)
        if pivot_idx is not None:
            # a leaves the span of the earlier inequalities: one line
            # becomes a ray, every old ray stays extreme
            pivot = lines.pop(pivot_idx)
            pl = dots.pop(pivot_idx)
            if pl < 0:
                pivot, pl = tuple(-x for x in pivot), -pl
            lines = [_eliminate(pl, l, d, pivot) for l, d in zip(lines, dots)]
            rays = [_eliminate(pl, r, _dot(a, r), pivot) for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append(pivot)
            zeros.append(bit - 1)
            continue
        signs = [_dot(a, r) for r in rays]
        # adjacent rays span a 2-face, whose tight rows have rank
        # rank(cone) - 2; they are adjacent iff no third ray is tight on
        # all of those rows
        need = rank - len(lines) - 2
        new_rays, new_zeros = [], []
        for p, sp in enumerate(signs):
            if sp <= 0:
                continue
            for q, sq in enumerate(signs):
                if sq >= 0:
                    continue
                common = zeros[p] & zeros[q]
                if common.bit_count() < need or any(
                        z & common == common
                        for k, z in enumerate(zeros) if k != p and k != q):
                    continue
                new_rays.append(_divide_content(
                    [sp * y - sq * x for x, y in zip(rays[p], rays[q])]))
                new_zeros.append(common | bit)
        kept = [k for k, s in enumerate(signs) if s >= 0]
        rays = [rays[k] for k in kept] + new_rays
        zeros = [zeros[k] | (bit if signs[k] == 0 else 0)
                 for k in kept] + new_zeros

    # rays and lines are primitive integer tuples already
    if not lines:
        return sorted({r for r in rays if any(r)}), []
    line_keys = _canonical_lines(lines, rank)
    reduced = [_reduce_mod_lines(r, line_keys) for r in rays]
    return sorted({_divide_content(r) for r in reduced if any(r)}), line_keys


# ---------------------------------------------------------------------------
# cones


class Cone:
    """A rational polyhedral cone given by generators.

    Canonical form: extreme rays as primitive integer vectors sorted
    lexicographically, plus a +/- pair per lineality basis vector for
    non-pointed cones (fan construction rejects those; they arise as
    duals of non-full-dimensional cones).  ``Cone(generators)`` runs
    one ``dd_generators`` pass on the primitive generators, which gives
    the dual's rays (the facet normals) and lines (a basis of the span's
    perp, so the dimension).  A pointed cone's rays are the generators
    whose zero set over the facet normals no generator's zero set
    strictly contains; a cone with lines (one of its generators is tight
    on every facet normal) takes a second pass.  A simplicial
    full-dimensional cone is no special case: it is pointed.  Every other
    operation runs at most one ``dd_generators`` pass, on an
    H-representation it already holds.
    ``_dual_gens`` (x is in the cone iff a.x >= 0 for all of them) may be
    any valid H-representation, redundant or not: nothing compares it.
    ``_dim`` and ``_quotient`` (the data of ``cohside``'s costandard
    stalks) are facts of the cone, computed on first use by :meth:`_memo`
    unless construction knew them.
    ``ambient_rank`` must be a nonnegative ``int``.
    """

    __slots__ = ("ambient_rank", "rays", "lines", "_dual_gens", "_dim",
                 "_quotient")

    def __init__(self, generators=(), ambient_rank=None):
        gens = [tuple(g) for g in generators]
        if ambient_rank is None:
            if not gens:
                raise FanError("ambient rank needed for a generator-free cone")
            ambient_rank = len(gens[0])
        if type(ambient_rank) is not int or ambient_rank < 0:
            raise FanError(f"ambient rank {ambient_rank!r} is not a "
                           "nonnegative integer")
        for g in gens:
            if len(g) != ambient_rank:
                raise FanError("generator length does not match ambient rank")
            check_exact(g, FanError, "generator entry")
        gens = [primitivize(g) for g in gens if any(x != 0 for x in g)]
        facets, perp = dd_generators(gens, ambient_rank)
        hrep = _signed(facets, perp)
        # zero set of each generator over the facet normals; a generator
        # tight on all of them lies in a line, and otherwise one is
        # extreme iff no generator's zero set strictly contains its own
        zeros = {g: frozenset(i for i, a in enumerate(facets)
                              if _dot(a, g) == 0) for g in gens}
        if any(len(z) == len(facets) for z in zeros.values()):
            rays, lines = dd_generators(hrep, ambient_rank)
        else:
            rays, lines = sorted(g for g, z in zeros.items() if not any(
                w > z for w in zeros.values())), ()
        Cone._from_reps(ambient_rank, rays, lines, hrep, self,
                        dim=ambient_rank - len(perp))

    @classmethod
    def _from_reps(cls, rank, rays, lines, hrep, cone=None, dim=None):
        """Set the slots of ``cone`` (a new Cone by default); ``dim`` is
        the dimension when the caller knows it, and the other memoized
        slot starts empty."""
        cone = object.__new__(cls) if cone is None else cone
        for name, value in zip(cls.__slots__, (rank, tuple(rays),
                                               tuple(lines), tuple(hrep),
                                               dim, None)):
            object.__setattr__(cone, name, value)
        return cone

    def _memo(self, slot, compute):
        """The value of a memoized slot, set to ``compute(self)`` on first
        use."""
        value = getattr(self, slot)
        if value is None:
            value = compute(self)
            object.__setattr__(self, slot, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    @property
    def generators(self):
        return tuple(sorted(_signed(self.rays, self.lines)))

    @property
    def key(self):
        return (self.ambient_rank, tuple(sorted(self.rays)), tuple(self.lines))

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.lines:
            return f"Cone(rays={list(self.rays)}, lines={list(self.lines)})"
        return f"Cone({list(self.rays)}, ambient_rank={self.ambient_rank})"

    def dim(self):
        return self._memo("_dim", _generator_rank)

    def is_zero(self):
        return not self.rays and not self.lines

    def is_strictly_convex(self):
        return not self.lines

    def is_full_dimensional(self):
        return self.dim() == self.ambient_rank

    def contains(self, point, strict=False):
        """Exact membership of a point with ``int`` or ``Fraction``
        coordinates; `strict` asks for the relative interior."""
        point = tuple(point)
        if len(point) != self.ambient_rank:
            raise FanError("point has the wrong dimension")
        check_exact(point, FanError, "coordinate")
        for a in self._dual_gens:
            v = _dot(a, point)
            if v < 0:
                return False
            if strict and v == 0 and any(_dot(a, r) != 0 for r in self.rays):
                return False
        # any valid H-representation cuts out the cone, its span included
        return True

    def negated(self):
        """The cone -c, of c's dimension when c knows it.  A strictly
        convex cone negates its rays and its H-representation; a cone
        with lines takes one double description, since reducing rays
        modulo the lines does not commute with negation."""
        hrep = [tuple(-x for x in a) for a in self._dual_gens]
        if self.lines:
            return Cone._from_reps(self.ambient_rank,
                                   *dd_generators(hrep, self.ambient_rank),
                                   hrep, dim=self._dim)
        rays = sorted(tuple(-x for x in r) for r in self.rays)
        return Cone._from_reps(self.ambient_rank, rays, (), hrep,
                               dim=self._dim)


def _generator_rank(c):
    gens = c.generators
    return rational_rank([list(g) for g in gens]) if gens else 0


def _signed(rays, lines):
    """The rays, then each line followed by its negation."""
    return list(rays) + [v for l in lines for v in (l, tuple(-x for x in l))]


def _check_cone(value, name):
    if not isinstance(value, Cone):
        raise FanError(f"{name} {value!r} is not a Cone")


def dual_cone(c: Cone) -> Cone:
    """The dual cone {v : v(x) >= 0 for all x in c} in the dual lattice.

    The generators of c are an H-representation of its dual, whose
    dimension is the ambient rank less that of c's lines.
    """
    _check_cone(c, "c")
    gens = c.generators
    return Cone._from_reps(c.ambient_rank,
                           *dd_generators(gens, c.ambient_rank), gens,
                           dim=c.ambient_rank - len(c.lines))


def faces(c: Cone):
    """All faces of a strictly convex cone, including {0} and c itself.

    Their ray sets are the full set and its intersections with the sets
    of rays that each inequality of c's H-representation is tight on.  A
    face keeps c's H-representation plus its negated tight inequalities,
    so no face needs a double description.  When c is simplicial (as
    many rays as its dimension) so is every face, and a face's dimension
    is its ray count; otherwise it is the face's height (longest chain
    below it) in the face lattice, which is graded by dimension; no face
    computes a rank.  Returned sorted by (dimension, canonical key); the
    partial order is inclusion of ray sets.
    """
    _check_cone(c, "c")
    if not c.is_strictly_convex():
        raise FanError("faces are only computed for strictly convex cones")
    rays, hrep = c.rays, c._dual_gens
    tight = [frozenset(i for i, r in enumerate(rays) if _dot(a, r) == 0)
             for a in hrep]
    everything = frozenset(range(len(rays)))
    found = {everything}
    for t in tight:
        found |= {f & t for f in found}
    if c.dim() == len(rays):
        height = {f: len(f) for f in found}
    else:
        height = {}
        for f in sorted(found, key=len):
            height[f] = max((h + 1 for g, h in height.items() if g < f),
                            default=0)
    negs = [tuple(-x for x in a) for a in hrep]
    out = []
    for f in found:
        tight_negs = [n for n, t in zip(negs, tight) if f <= t]
        out.append(Cone._from_reps(c.ambient_rank,
                                   [rays[i] for i in sorted(f)], (),
                                   hrep + tuple(tight_negs), dim=height[f]))
    return sorted(out, key=lambda f: (f.dim(), f.key))


def intersect_cones(a: Cone, b: Cone) -> Cone:
    _check_cone(a, "a")
    _check_cone(b, "b")
    if a.ambient_rank != b.ambient_rank:
        raise FanError("cones live in different ranks")
    hrep = a._dual_gens + b._dual_gens
    return Cone._from_reps(a.ambient_rank,
                           *dd_generators(hrep, a.ambient_rank), hrep)


def is_smooth_cone(c: Cone) -> bool:
    """True iff the generators extend to (or are) a Z-basis of the lattice."""
    _check_cone(c, "c")
    if not c.is_strictly_convex():
        return False
    if not c.rays:
        return True
    if len(c.rays) != c.dim():
        return False
    diag = smith_normal_form(IntMatrix([list(r) for r in c.rays])).D.diagonal()
    return all(d == 1 for d in diag)


# ---------------------------------------------------------------------------
# fans


class Fan:
    """A finite fan: strictly convex cones closed under faces and intersections.

    Built as the face closure of the given cones, which must meet
    pairwise in a common face; a pair that does not is a
    :class:`FanError` naming it.  Its maximal cones are found once, on
    first use.
    """

    def __init__(self, cones, rank):
        self.rank = rank
        self._maximal = None
        cones = list(cones)
        table = {}
        face_keys = []
        for c in cones:
            if c.ambient_rank != rank:
                raise FanError("cone rank does not match fan rank")
            if not c.is_strictly_convex():
                raise FanError(f"cone {c!r} is not strictly convex")
            fs = faces(c)
            face_keys.append({f.key for f in fs})
            for f in fs:
                table[f.key] = f
        for (a, fa), (b, fb) in combinations(zip(cones, face_keys), 2):
            inter = intersect_cones(a, b)
            if inter.key not in fa or inter.key not in fb:
                raise FanError(f"cones overlap: intersection of {a!r} and "
                               f"{b!r} is not a common face")
        if not table:
            # every cone's faces hold the zero cone; only the empty fan
            # builds it
            zero = Cone((), ambient_rank=rank)
            table[zero.key] = zero
        self._cones = dict(sorted(table.items()))

    @property
    def cones(self):
        return list(self._cones.values())

    def cones_of_dim(self, d):
        return [c for c in self.cones if c.dim() == d]

    def rays(self):
        """Primitive generators of the 1-dimensional cones (Sigma(1))."""
        return sorted(c.rays[0] for c in self.cones_of_dim(1))

    def maximal_cones(self):
        """The cones that lie in no other, sorted by key.

        The fan is closed under faces and intersections, so a cone lies
        in another exactly when it is a face of it, that is when its
        rays are a subset of the other's.
        """
        if self._maximal is None:
            cones = self.cones
            ray_sets = [frozenset(c.rays) for c in cones]
            self._maximal = tuple(c for c, s in zip(cones, ray_sets)
                                  if not any(s < t for t in ray_sets))
        return list(self._maximal)

    def __contains__(self, cone):
        return cone.key in self._cones

    def __len__(self):
        return len(self._cones)

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rank == other.rank
                and self._cones.keys() == other._cones.keys())

    def __repr__(self):
        return f"Fan(rank={self.rank}, n_cones={len(self)})"


def fan_from_max_cones(maximal, rank=None) -> Fan:
    """The fan of the given cones (see :class:`Fan`); ``rank`` defaults
    to the first cone's ambient rank."""
    maximal = list(maximal)
    if rank is None:
        if not maximal:
            raise FanError("rank needed for an empty fan")
        rank = maximal[0].ambient_rank
    return Fan(maximal, rank)


def standard_fan(kind, n=None, k=None) -> Fan:
    """Named fans: ``Pn`` (projective space), ``AkGm``, and ``point``.

    ``Pn(n)`` uses the rays e_1..e_n and -e_1-...-e_n; ``AkGm(k, n)`` is
    the face fan of cone(e_1..e_k) inside Z^n; ``point`` is the rank-0
    fan.  ``n`` and ``k`` must be ``int``.
    """
    for name, value in (("n", n), ("k", k)):
        if value is not None and type(value) is not int:
            raise FanError(f"{name} = {value!r} is not an integer")
    if kind == "point":
        return Fan([], rank=0)
    if kind == "Pn":
        if n is None or n < 1:
            raise FanError("Pn needs n >= 1")
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rays.append(tuple(-1 for _ in range(n)))
        maxc = [Cone([rays[i] for i in range(n + 1) if i != j], ambient_rank=n)
                for j in range(n + 1)]
        return fan_from_max_cones(maxc, rank=n)
    if kind == "AkGm":
        if n is None or k is None or not 0 <= k <= n:
            raise FanError("AkGm needs 0 <= k <= n")
        gens = [tuple(int(i == j) for j in range(n)) for i in range(k)]
        return fan_from_max_cones([Cone(gens, ambient_rank=n)], rank=n)
    raise FanError(f"unknown standard fan kind {kind!r}")


def is_refinement(fine: Fan, coarse: Fan) -> bool:
    """True iff the first fan subdivides the second with equal support.

    Refinement construction is out of scope; this only validates a
    user-supplied refinement, by the standard tiling criterion: inside
    each maximal coarse cone, every facet of a top-dimensional fine cell
    either lies on the coarse boundary or is shared by exactly two
    cells.
    """
    if fine.rank != coarse.rank:
        return False
    coarse_max = coarse.maximal_cones()
    fine_max = fine.maximal_cones()
    homes = {}
    for c in fine_max:
        found = [d for d in coarse_max
                 if all(d.contains(g) for g in c.generators)]
        if not found:
            return False
        homes[c.key] = found
    for d in coarse_max:
        dim_d = d.dim()
        cells = [c for c in fine_max
                 if any(h.key == d.key for h in homes[c.key])
                 and c.dim() == dim_d]
        if not cells:
            return False
        boundary = [f for f in faces(d) if f.dim() == dim_d - 1]
        facet_cells = {}
        for c in cells:
            for f in faces(c):
                if f.dim() == dim_d - 1:
                    facet_cells.setdefault(f, []).append(c)
        # A facet on the boundary of d has one owner.  Two cells through
        # it would both lie, near it, on d's side of its hyperplane in
        # span(d), so they would meet in a cone of full dimension; a Fan
        # allows that only for equal cones, and maximal cones differ.
        for facet, owners in facet_cells.items():
            if len(owners) != 2 and not any(
                    all(b.contains(g) for g in facet.generators)
                    for b in boundary):
                return False
    return True


# ---------------------------------------------------------------------------
# Cech nerve of the maximal-cone cover


@dataclass(frozen=True)
class CechNerve:
    """Simplices over the maximal cones; each carries its intersection cone."""

    vertices: tuple
    simplices: dict  # frozenset of vertex indices -> Cone

    def count_by_dim(self):
        out = {}
        for s in self.simplices:
            out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
        return out


def cech_nerve(f: Fan) -> CechNerve:
    """The nerve of the maximal-cone cover of ``f``.

    Cones of a fan meet in a common face, whose rays are the rays the
    cones share, so each simplex's cone is the cone of ``f`` on the
    intersection of its vertices' ray sets, read from ``f``'s cone table
    with no double description.
    """
    if not isinstance(f, Fan):
        raise FanError(f"f {f!r} is not a Fan")
    maxc = f.maximal_cones()
    if not maxc:
        raise FanError("nerve of an empty fan")
    shared = {(i,): frozenset(c.rays) for i, c in enumerate(maxc)}
    simplices = {}
    for size in range(1, len(maxc) + 1):
        for subset in combinations(range(len(maxc)), size):
            if size > 1:
                shared[subset] = shared[subset[:-1]] & shared[subset[-1:]]
            simplices[frozenset(subset)] = f._cones[
                (f.rank, tuple(sorted(shared[subset])), ())]
    return CechNerve(vertices=tuple(maxc), simplices=simplices)


# ---------------------------------------------------------------------------
# stacky fans


class StackyFan:
    """A lattice map with finite cokernel plus matching fans on both sides.

    ``beta`` maps L -> N (a rows-by-cols = rank N-by-rank L
    :class:`IntMatrix`); ``fan_hat`` lives in L_R and ``fan`` in N_R, both
    :class:`Fan`, and beta_R must carry the cones of fan_hat bijectively
    onto those of fan.  ``fan`` defaults to the fan of the images of
    fan_hat's maximal cones.  Those images are built once, on first use,
    and kept in ``_images`` (maximal cone key -> image cone), which
    ``fan``'s default, :meth:`image_cone`, :func:`validate_stacky` and
    ``cohside.gamma_category`` all read; a stacky fan given its ``fan``
    builds none until one of them asks.  Immutable, so the kept images
    stay those of ``beta``.
    """

    __slots__ = ("beta", "fan_hat", "fan", "_images")

    def __init__(self, beta: IntMatrix, fan_hat: Fan, fan: Fan | None = None):
        if not isinstance(beta, IntMatrix):
            raise FanError(f"beta {beta!r} is not an IntMatrix")
        if not isinstance(fan_hat, Fan):
            raise FanError(f"fan_hat {fan_hat!r} is not a Fan")
        if fan is not None and not isinstance(fan, Fan):
            raise FanError(f"fan {fan!r} is not a Fan")
        if fan_hat.rank != beta.cols:
            raise FanError("fan_hat rank must equal the source rank of beta")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "fan_hat", fan_hat)
        object.__setattr__(self, "_images", None)
        if fan is None:
            fan = fan_from_max_cones(self._maximal_images().values(),
                                     rank=beta.rows)
        if fan.rank != beta.rows:
            raise FanError("fan rank must equal the target rank of beta")
        object.__setattr__(self, "fan", fan)

    def __setattr__(self, name, value):
        raise AttributeError("StackyFan is immutable")

    @classmethod
    def nonstacky(cls, fan: Fan):
        return cls(IntMatrix.identity(fan.rank), fan, fan)

    def _maximal_images(self):
        """Maximal cone key of fan_hat -> its image cone, built on first
        use through ``Cone``: one double-description pass per pointed
        image."""
        if self._images is None:
            object.__setattr__(self, "_images", {
                c.key: _image(self.beta, c)
                for c in self.fan_hat.maximal_cones()})
        return self._images

    def image_cone(self, cone_hat: Cone) -> Cone:
        """The cone beta_R(cone_hat); a maximal cone of fan_hat reads its
        kept image, any other cone is built afresh."""
        image = self._maximal_images().get(cone_hat.key)
        return _image(self.beta, cone_hat) if image is None else image

    def __repr__(self):
        return f"StackyFan(beta={self.beta!r}, n_cones={len(self.fan_hat)})"


def _image(beta, cone_hat):
    return Cone([beta @ g for g in cone_hat.generators] or (),
                ambient_rank=beta.rows)


def validate_stacky(sf: StackyFan) -> bool:
    """True iff coker(beta) is finite and beta maps fan_hat cone-bijectively onto fan.

    Dimensions are compared on the kept maximal images only.  Where they
    match, beta is injective on each maximal cone's span, so it maps
    every cone of fan_hat onto the cone on the primitive images of its
    rays, and the image's key is read from that ray set with no double
    description.
    """
    if not cokernel(sf.beta).is_finite:
        return False
    for c in sf.fan_hat.maximal_cones():
        if sf.image_cone(c).dim() != c.dim():
            return False
    rank, targets = sf.beta.rows, sf.fan._cones
    image_keys = set()
    for c in sf.fan_hat.cones:
        key = (rank, tuple(sorted(primitivize(sf.beta @ r) for r in c.rays)),
               ())
        if key not in targets or key in image_keys:
            return False
        image_keys.add(key)
    return len(image_keys) == len(targets)


# ---------------------------------------------------------------------------
# JSON fan schema: {"rank": n, "max_cones": [[[v]...]...], "beta": [[...]]?}


def fan_to_json(obj) -> str:
    if isinstance(obj, StackyFan):
        data = {
            "rank": obj.fan_hat.rank,
            "max_cones": [[list(g) for g in c.rays]
                          for c in obj.fan_hat.maximal_cones()],
            "beta": [list(r) for r in obj.beta.entries],
        }
    else:
        data = {
            "rank": obj.rank,
            "max_cones": [[list(g) for g in c.rays] for c in obj.maximal_cones()],
        }
    return json.dumps(data, sort_keys=True)


def fan_from_json(text):
    """Parse the JSON fan schema; returns a Fan, or a StackyFan when beta is given."""
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict) or "rank" not in data:
        raise FanError("fan JSON must be an object with a 'rank' field")
    rank = data["rank"]
    if type(rank) is not int:
        raise FanError(f"fan JSON 'rank' must be an integer, not {rank!r}")
    max_cones = data.get("max_cones", [])
    if not isinstance(max_cones, list) or not all(
            isinstance(gens, list) and all(isinstance(v, list) for v in gens)
            for gens in max_cones):
        raise FanError("fan JSON 'max_cones' must be a list of cones, each "
                       "a list of generator vectors")
    cones = [Cone([tuple(v) for v in gens], ambient_rank=rank)
             for gens in max_cones]
    fan = Fan(cones, rank)
    beta = data.get("beta")
    if beta is not None:
        if not isinstance(beta, list) or not all(
                isinstance(row, list) and len(row) == len(beta[0])
                for row in beta):
            raise FanError("fan JSON 'beta' must be a rectangular list of "
                           f"integer rows, not {beta!r}")
        for row in beta:
            check_ints(row, FanError, "fan JSON 'beta' must be a rectangular "
                       "list of integer rows; entry")
        return StackyFan(IntMatrix(beta), fan)
    return fan
