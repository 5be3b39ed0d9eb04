"""Rational polyhedral cones, fans, stacky fans, and Cech nerves.

All cone computations are exact: V- and H-representations are carried
between each other by a double description pass on primitive integer
vectors, which decides adjacency of rays from their zero sets rather
than by rank computations, and canonical forms use primitive integer
generators sorted lexicographically.  Desk-scale only; no attempt at
large-dimension performance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .zlin import (
    IntMatrix,
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
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


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

    ray_keys = sorted({primitivize(r) for r in rays})
    line_keys = _canonical_lines([primitivize(l) for l in lines], rank)
    ray_keys = [_reduce_mod_lines(r, line_keys) for r in ray_keys]
    ray_keys = sorted({primitivize(r) for r in ray_keys if any(x != 0 for x in r)})
    return ray_keys, line_keys


# ---------------------------------------------------------------------------
# cones


class Cone:
    """A rational polyhedral cone given by generators.

    Canonical form: extreme rays as primitive integer vectors sorted
    lexicographically, plus a +/- pair per lineality basis vector for
    non-pointed cones (fan construction rejects those; they arise as
    duals of non-full-dimensional cones).
    """

    __slots__ = ("ambient_rank", "rays", "lines", "_dual_gens")

    def __init__(self, generators=(), ambient_rank=None):
        gens = [tuple(g) for g in generators]
        if ambient_rank is None:
            if not gens:
                raise FanError("ambient rank needed for a generator-free cone")
            ambient_rank = len(gens[0])
        if ambient_rank < 0:
            raise FanError(f"ambient rank {ambient_rank} is negative")
        for g in gens:
            if len(g) != ambient_rank:
                raise FanError("generator length does not match ambient rank")
            for x in g:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise FanError(f"generator entry {x!r} is not an integer "
                                   "or a Fraction")
        gens = [primitivize(g) for g in gens if any(x != 0 for x in g)]
        # canonicalize through the double dual
        if gens:
            ineqs, dual_lines = dd_generators(gens, ambient_rank)
            hrep = list(ineqs)
            for l in dual_lines:
                hrep.append(l)
                hrep.append(tuple(-x for x in l))
            rays, lines = dd_generators(hrep, ambient_rank)
        else:
            # the zero cone: H-representation is the +/- coordinate pairs
            hrep = []
            for i in range(ambient_rank):
                e = tuple(int(i == j) for j in range(ambient_rank))
                hrep.append(e)
                hrep.append(tuple(-x for x in e))
            rays, lines = [], []
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "_dual_gens", tuple(hrep))

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    @property
    def generators(self):
        gens = list(self.rays)
        for l in self.lines:
            gens.append(l)
            gens.append(tuple(-x for x in l))
        return tuple(sorted(gens))

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
        gens = self.generators
        if not gens:
            return 0
        return rational_rank([list(g) for g in gens])

    def is_zero(self):
        return not self.rays and not self.lines

    def is_strictly_convex(self):
        return not self.lines

    def is_full_dimensional(self):
        return self.dim() == self.ambient_rank

    def contains(self, point, strict=False):
        """Exact membership; `strict` asks for the relative interior."""
        point = tuple(x if type(x) is int else Fraction(x) for x in point)
        if len(point) != self.ambient_rank:
            raise FanError("point has the wrong dimension")
        for a in self._dual_gens:
            v = _dot(a, point)
            if v < 0:
                return False
            if strict and v == 0 and any(_dot(a, r) != 0 for r in self.rays):
                return False
        # outside the span: some +/- inequality pair fails above
        return True

    def negated(self):
        return Cone([tuple(-x for x in g) for g in self.generators],
                    ambient_rank=self.ambient_rank)


def dual_cone(c: Cone) -> Cone:
    """The dual cone {v : v(x) >= 0 for all x in c} in the dual lattice."""
    rays, lines = dd_generators(c.generators, c.ambient_rank)
    gens = list(rays)
    for l in lines:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return Cone(gens, ambient_rank=c.ambient_rank)


def faces(c: Cone):
    """All faces of a strictly convex cone, including {0} and c itself.

    Returned sorted by (dimension, canonical key); the partial order is
    inclusion of ray sets.
    """
    if not c.is_strictly_convex():
        raise FanError("faces are only computed for strictly convex cones")
    rays = list(c.rays)
    duals = list(c._dual_gens)
    out = {}
    for size in range(len(rays) + 1):
        for subset in combinations(range(len(rays)), size):
            chosen = [rays[i] for i in subset]
            w = [0] * c.ambient_rank
            for d in duals:
                if all(_dot(d, g) == 0 for g in chosen):
                    w = [a + b for a, b in zip(w, d)]
            zero_set = tuple(i for i, g in enumerate(rays) if _dot(w, g) == 0)
            if zero_set == subset:
                face = Cone(chosen, ambient_rank=c.ambient_rank)
                out[face.key] = face
    return sorted(out.values(), key=lambda f: (f.dim(), f.key))


def intersect_cones(a: Cone, b: Cone) -> Cone:
    if a.ambient_rank != b.ambient_rank:
        raise FanError("cones live in different ranks")
    rays, lines = dd_generators(list(a._dual_gens) + list(b._dual_gens),
                                a.ambient_rank)
    gens = list(rays)
    for l in lines:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return Cone(gens, ambient_rank=a.ambient_rank)


def is_smooth_cone(c: Cone) -> bool:
    """True iff the generators extend to (or are) a Z-basis of the lattice."""
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
    """A finite fan: strictly convex cones closed under faces and intersections."""

    def __init__(self, cones, rank):
        self.rank = rank
        table = {}
        for c in cones:
            if c.ambient_rank != rank:
                raise FanError("cone rank does not match fan rank")
            if not c.is_strictly_convex():
                raise FanError("fans contain strictly convex cones only")
            table[c.key] = c
        zero = Cone((), ambient_rank=rank)
        table.setdefault(zero.key, zero)
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
        cones = self.cones
        out = []
        for c in cones:
            contained = any(
                d.key != c.key and all(d.contains(g) for g in c.rays)
                for d in cones)
            if not contained:
                out.append(c)
        return sorted(out, key=lambda c: c.key)

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
    """Build the face-and-intersection closure of the given cones.

    Rejects inputs where a pairwise intersection is not a common face,
    reporting the offending pair.
    """
    maximal = list(maximal)
    if rank is None:
        if not maximal:
            raise FanError("rank needed for an empty fan")
        rank = maximal[0].ambient_rank
    table = {}
    face_keys = []
    for c in maximal:
        if not c.is_strictly_convex():
            raise FanError(f"cone {c!r} is not strictly convex")
        fs = faces(c)
        face_keys.append({f.key for f in fs})
        for f in fs:
            table[f.key] = f
    for i, j in combinations(range(len(maximal)), 2):
        inter = intersect_cones(maximal[i], maximal[j])
        if inter.key not in face_keys[i] or inter.key not in face_keys[j]:
            raise FanError(
                "cones overlap: intersection of "
                f"{maximal[i]!r} and {maximal[j]!r} is not a common face")
    return Fan(table.values(), rank)


def standard_fan(kind, n=None, k=None) -> Fan:
    """Named fans: ``Pn`` (projective space), ``AkGm``, and ``point``.

    ``Pn(n)`` uses the rays e_1..e_n and -e_1-...-e_n; ``AkGm(k, n)`` is
    the face fan of cone(e_1..e_k) inside Z^n; ``point`` is the rank-0
    fan.
    """
    if kind == "point":
        return Fan([Cone((), ambient_rank=0)], rank=0)
    if kind == "Pn":
        if not n or n < 1:
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
        boundary = {f.key for f in faces(d) if f.dim() == dim_d - 1}
        facet_cells = {}
        for c in cells:
            for f in faces(c):
                if f.dim() == dim_d - 1:
                    facet_cells.setdefault(f.key, []).append(c)
        for fkey, owners in facet_cells.items():
            facet = Cone(list(fkey[1]), ambient_rank=fine.rank)
            on_boundary = any(
                all(Cone(list(bk[1]), ambient_rank=fine.rank).contains(g)
                    for g in facet.generators)
                for bk in boundary)
            if on_boundary:
                if len(owners) != 1:
                    return False
            elif len(owners) != 2:
                return False
    return True


# ---------------------------------------------------------------------------
# Cech nerve of the maximal-cone cover


@dataclass(frozen=True)
class CechNerve:
    """Simplices over the maximal cones; each carries its intersection cone."""

    vertices: tuple
    simplices: dict  # frozenset of vertex indices -> Cone

    def simplices_of_dim(self, d):
        return sorted((s for s in self.simplices if len(s) == d + 1),
                      key=sorted)

    def count_by_dim(self):
        out = {}
        for s in self.simplices:
            out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
        return out


def cech_nerve(f: Fan) -> CechNerve:
    maxc = f.maximal_cones()
    if not maxc:
        raise FanError("nerve of an empty fan")
    simplices = {}
    for size in range(1, len(maxc) + 1):
        for subset in combinations(range(len(maxc)), size):
            inter = maxc[subset[0]]
            for i in subset[1:]:
                inter = intersect_cones(inter, maxc[i])
            simplices[frozenset(subset)] = inter
    return CechNerve(vertices=tuple(maxc), simplices=simplices)


# ---------------------------------------------------------------------------
# stacky fans


class StackyFan:
    """A lattice map with finite cokernel plus matching fans on both sides.

    ``beta`` maps L -> N (a rows-by-cols = rank N-by-rank L integer
    matrix); ``fan_hat`` lives in L_R and ``fan`` in N_R, and beta_R must
    carry the cones of fan_hat bijectively onto those of fan.
    """

    def __init__(self, beta: IntMatrix, fan_hat: Fan, fan: Fan | None = None):
        self.beta = beta
        self.fan_hat = fan_hat
        if fan_hat.rank != beta.cols:
            raise FanError("fan_hat rank must equal the source rank of beta")
        if fan is None:
            maxi = [Cone([beta @ g for g in c.rays], ambient_rank=beta.rows)
                    for c in fan_hat.maximal_cones()]
            fan = fan_from_max_cones(maxi, rank=beta.rows)
        if fan.rank != beta.rows:
            raise FanError("fan rank must equal the target rank of beta")
        self.fan = fan

    @classmethod
    def nonstacky(cls, fan: Fan):
        return cls(IntMatrix.identity(fan.rank), fan, fan)

    def image_cone(self, cone_hat: Cone) -> Cone:
        return Cone([self.beta @ g for g in cone_hat.generators] or (),
                    ambient_rank=self.beta.rows)

    def __repr__(self):
        return f"StackyFan(beta={self.beta!r}, n_cones={len(self.fan_hat)})"


def validate_stacky(sf: StackyFan) -> bool:
    """True iff coker(beta) is finite and beta maps fan_hat cone-bijectively onto fan."""
    if not cokernel(sf.beta).is_finite:
        return False
    image_keys = set()
    for c in sf.fan_hat.cones:
        img = sf.image_cone(c)
        if img not in sf.fan:
            return False
        if img.dim() != c.dim():
            return False
        if img.key in image_keys:
            return False
        image_keys.add(img.key)
    return image_keys == set(sf.fan._cones.keys())


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
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise FanError(f"fan JSON 'rank' must be an integer, not {rank!r}")
    max_cones = data.get("max_cones", [])
    if not isinstance(max_cones, list) or not all(
            isinstance(gens, list) and all(isinstance(v, list) for v in gens)
            for gens in max_cones):
        raise FanError("fan JSON 'max_cones' must be a list of cones, each "
                       "a list of generator vectors")
    cones = [Cone([tuple(v) for v in gens], ambient_rank=rank)
             for gens in max_cones]
    fan = fan_from_max_cones(cones, rank=rank) if cones else Fan([], rank)
    if "beta" in data and data["beta"] is not None:
        beta = IntMatrix(data["beta"])
        return StackyFan(beta, fan)
    return fan
