"""FLTZ skeleton combinatorics.

Components of the conical Lagrangian attached to a (stacky) fan, exact
chamber enumeration for the perturbed projective-space skeleton on the
torus, the chamber quiver with monodromy-twisted labels, and a small
deterministic SVG emitter for the skeleta of rank 1 and 2 and the
chamber picture at n = 2.

The perturbation parameter is an exact rational: chambers are encoded by
sign vectors against the walls {x_i = eps} and {sum x = m}, never by
floating point.  Whether a chamber is nonempty depends only on its number
k of S flags and its slant, so with eps = p/q each (k, slant) is decided
once in integers scaled by q; the walls of the quiver are found by
stepping from each chamber to its at most n + 1 lower neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, cos, hypot, pi, sin

from .fans import Cone, Fan, StackyFan
from .picsym import PicMonomial, format_monomial
from .zlin import (IntMatrix, LatticeQuotient, check_exact, kernel_basis,
                   smith_normal_form)


class SkeletonError(ValueError):
    pass


class UnsupportedConeError(SkeletonError):
    pass


# ---------------------------------------------------------------------------
# skeleton components (-tau) x (tau-perp + chi)


@dataclass(frozen=True)
class SkeletonComponent:
    """One piece of the skeleton: a cotangent-fiber cone over a shifted subtorus."""

    cone: Cone                # the fiber part, already negated
    character: tuple          # coset representative in [0,1)^n
    base_subspace: tuple      # basis of tau-perp, integer vectors

    @property
    def base_dim(self):
        return len(self.base_subspace)


def character_lattice_quotient(beta: IntMatrix) -> LatticeQuotient:
    """The finite quotient housing the skeleton characters of full cones.

    Its superlattice is {m : beta^T m integral} in M ⊗ Q, with basis
    columns of ``Fraction``s, taken modulo M = Z^n.  ``beta`` must be an
    :class:`IntMatrix`.
    """
    if not isinstance(beta, IntMatrix):
        raise SkeletonError(f"beta {beta!r} is not an IntMatrix")
    snf = smith_normal_form(beta.transpose())
    diag = snf.D.diagonal()
    n = beta.rows
    if any(d == 0 for d in diag) or len(diag) < n:
        raise SkeletonError("beta is not injective after dualizing; "
                            "cokernel of beta must be finite")
    sup = [tuple(Fraction(x, diag[i]) for x in snf.V.column(i))
           for i in range(n)]
    return LatticeQuotient(sup)


def _reduce_to_unit_box(vec):
    return tuple(Fraction(x) - Fraction(x).__floor__() for x in vec)


def fltz_components(sf) -> list:
    """Skeleton components of a fan or stacky fan, one per (cone, character).

    For trivial stacky data every cone contributes a single component
    with zero shift.  Nontrivial characters are computed only for the
    zero cone and for full-dimensional cones; other faces of a genuinely
    stacky fan raise :class:`UnsupportedConeError`.
    """
    if isinstance(sf, Fan):
        sf = StackyFan.nonstacky(sf)
    n = sf.fan.rank
    quotient = character_lattice_quotient(sf.beta)
    trivial = quotient.index == 1
    out = []
    for tau in sf.fan.cones:
        if trivial or tau.is_zero():
            characters = [tuple(Fraction(0) for _ in range(n))]
        elif tau.dim() == n:
            characters = [_reduce_to_unit_box(rep)
                          for rep in quotient.representatives]
        else:
            raise UnsupportedConeError(
                "characters for a proper nonzero face of a stacky fan are "
                "not supported")
        if tau.is_zero():
            perp = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        else:
            perp = kernel_basis(IntMatrix([list(g) for g in tau.rays]))
        cone = tau.negated()
        for chi in sorted(characters):
            out.append(SkeletonComponent(
                cone=cone,
                character=chi,
                base_subspace=tuple(tuple(v) for v in perp),
            ))
    return out


# ---------------------------------------------------------------------------
# chambers of the perturbed projective-space skeleton


@dataclass(frozen=True, order=True)
class Chamber:
    """A region of the cube cut by the walls {x_i = eps} and {sum x = m}.

    ``flags[i]`` is "S" when x_i < eps on the chamber and "L" otherwise;
    ``slant`` counts the slanted walls between the chamber and the
    origin corner.
    """

    flags: tuple
    slant: int

    @property
    def step(self):
        return sum(1 for f in self.flags if f == "S") + self.slant

    @property
    def n(self):
        return len(self.flags)

    def flag_string(self):
        return "".join(self.flags)


def default_epsilon(n):
    return Fraction(1, 2 * n + 2)


def _box_bounds(flags, eps):
    lows = [Fraction(0) if f == "S" else eps for f in flags]
    highs = [eps if f == "S" else Fraction(1) for f in flags]
    return lows, highs


def _check_dimension(n, needs):
    """``n`` must be an ``int`` and at least 1; ``needs`` is the message
    for a smaller one."""
    if type(n) is not int:
        raise SkeletonError(f"n = {n!r} is not an int")
    if n < 1:
        raise SkeletonError(needs)


def _epsilon(eps, n):
    """``eps`` as a ``Fraction`` (default 1/(2n + 2)); it must be an ``int``
    or a ``Fraction`` strictly between 0 and 1/2."""
    if eps is None:
        return default_epsilon(n)
    check_exact((eps,), SkeletonError, "epsilon")
    if not 0 < eps < Fraction(1, 2):
        raise SkeletonError("epsilon must lie strictly between 0 and 1/2")
    return Fraction(eps)


def enumerate_chambers(n: int, eps=None) -> list:
    """All nonempty chambers, found geometrically from exact sign vectors.

    The box of a chamber with k S flags has coordinate sums between
    (n - k) eps and k eps + n - k, so whether it meets the slant band
    (m, m + 1) depends only on (k, m); with eps = p/q the test is decided
    once per (k, m) in integers, scaled by q.  ``n`` must be an ``int``
    >= 1 and ``eps`` an ``int`` or ``Fraction``.
    """
    _check_dimension(n, "chamber enumeration needs n >= 1")
    eps = _epsilon(eps, n)
    p, q = eps.numerator, eps.denominator
    slants = [[m for m in range(n)
               if max((n - k) * p, m * q) < min(k * p + (n - k) * q,
                                                (m + 1) * q)]
              for k in range(n + 1)]
    keys = sorted((flags.count("S") + m, flags, m)
                  for flags in product("LS", repeat=n)
                  for m in slants[flags.count("S")])
    return [Chamber(flags=flags, slant=m) for _, flags, m in keys]


def chamber_step_counts(n: int) -> list:
    """Closed-formula chamber counts by step: the independent route.

    ``n`` must be an ``int`` >= 1.
    """
    _check_dimension(n, "step counts need n >= 1")
    counts = [1]
    for k in range(1, n):
        counts.append(sum(comb(n, j) for j in range(k + 1)))
    counts.append(sum(comb(n, j) for j in range(1, n + 1)))
    return counts


def sample_point(chamber: Chamber, eps=None):
    """A deterministic exact interior point of the chamber.

    Interpolates the box corners so that the coordinate sum hits the
    middle of the admissible slant interval.  ``eps`` must be an ``int``
    or a ``Fraction`` strictly between 0 and 1/2.
    """
    eps = _epsilon(eps, chamber.n)
    lows, highs = _box_bounds(chamber.flags, eps)
    lo_sum, hi_sum = sum(lows), sum(highs)
    target_lo = max(lo_sum, Fraction(chamber.slant))
    target_hi = min(hi_sum, Fraction(chamber.slant + 1))
    if not target_lo < target_hi:
        raise SkeletonError(f"chamber {chamber} is empty")
    target = (target_lo + target_hi) / 2
    t = (target - lo_sum) / (hi_sum - lo_sum)
    return tuple(lo + t * (hi - lo) for lo, hi in zip(lows, highs))


def _walls(n, chambers, eps):
    """(upper, lower) pairs of chambers that share a wall, n >= 2.

    From a chamber with k S flags at slant m a wall leads down either
    across x_i = eps, to the chamber with the i-th S flag turned to L, or
    across sum x = m, to slant m - 1.  Each wall is crossed when its face
    meets the slant band, decided like ``enumerate_chambers`` in integers
    scaled by the denominator q of eps = p/q; a face that does so lies
    between two chambers, so the neighbour is always in ``chambers``.
    """
    p, q = eps.numerator, eps.denominator
    by_key = {(c.flags, c.slant): c for c in chambers}
    out = []
    for c in chambers:
        flags, m = c.flags, c.slant
        k = flags.count("S")
        if max((n - k + 1) * p, m * q) < min(k * p + (n - k) * q,
                                             (m + 1) * q):
            for i, f in enumerate(flags):
                if f == "S":
                    out.append((c, by_key[flags[:i] + ("L",) + flags[i + 1:],
                                          m]))
        if (n - k) * p < m * q < k * p + (n - k) * q:
            out.append((c, by_key[flags, m - 1]))
    return out


# ---------------------------------------------------------------------------
# the chamber quiver with monodromy labels


@dataclass(frozen=True)
class QuiverVertex:
    chamber: Chamber
    translate: tuple          # deck translation of this displayed lift
    label: PicMonomial

    @property
    def step(self):
        return self.chamber.step

    def region(self):
        """(interval indices, slant index) of the lift inside the cover."""
        return _region(self.chamber, self.translate)


def _region(chamber, translate):
    a = tuple((-1 if f == "S" else 0) + t
              for f, t in zip(chamber.flags, translate))
    return a, chamber.slant + sum(translate)


@dataclass(frozen=True)
class QuiverEdge:
    source: int
    target: int
    label: PicMonomial


@dataclass(frozen=True)
class ChamberQuiver:
    n: int
    vertices: tuple
    edges: tuple
    generators: tuple  # the loop monomials used for labels


def _canonical_avec(n, step):
    # the lift (L,..,L,S,..,S with `step` trailing S) at slant zero
    return tuple(-1 if i >= n - step else 0 for i in range(n))


def _transport(loops, vec):
    out = PicMonomial.unit(loops[0].n_generators)
    for loop, e in zip(loops, vec):
        out = out * (loop ** e)
    return out


def _monomials(items, n, what):
    """``items`` as a list of exactly n ``PicMonomial``s."""
    try:
        items = list(items)
    except TypeError:
        raise SkeletonError(f"{what}s {items!r} are not a sequence") from None
    if len(items) != n:
        raise SkeletonError(f"need one {what} per dimension: {n}, "
                            f"not {len(items)}")
    for m in items:
        if not isinstance(m, PicMonomial):
            raise SkeletonError(f"{what} {m!r} is not a PicMonomial")
    return items


def chamber_quiver(n: int, pic=None, loop_monomials=None) -> ChamberQuiver:
    """The chamber quiver on the fundamental domain with twisted labels.

    Vertices are the cube chambers (for n = 1 the boundary chamber is
    displayed twice, once per lift); edges are single wall crossings
    oriented from higher to lower step.  Crossing the i-th boundary of
    the domain multiplies a label by the i-th monomial, and each vertex
    carries the transport of its step class's canonical lift.  ``n``
    must be an ``int`` >= 1, and ``pic`` and ``loop_monomials`` n
    ``PicMonomial``s each, all over one generator count.
    """
    _check_dimension(n, "the chamber quiver needs n >= 1")
    pic = (_monomials(pic, n, "Pic generator") if pic is not None
           else [PicMonomial.unit(n)] * n)
    loops = (_monomials(loop_monomials, n, "loop monomial")
             if loop_monomials is not None else pic)
    if len({m.n_generators for m in pic + loops}) != 1:
        raise SkeletonError("the Pic generators and loop monomials must "
                            "share one generator count")
    eps = default_epsilon(n)

    # the chambers come ordered by (step, flags, slant), and so do the
    # lifts, which are the vertices in order
    chambers = enumerate_chambers(n, eps)
    lifts = [(c, (0,) * n) for c in chambers]
    if n == 1:
        # the {x = 0} wall sits on the domain boundary: show both lifts of
        # the outer chamber, matching the three-vertex picture
        lifts.append((chambers[1], (1,)))

    labels = {}

    def transport(vec):
        if vec not in labels:
            labels[vec] = _transport(loops, vec)
        return labels[vec]

    vertices, regions, disps = [], [], []
    for c, t in lifts:
        a, m = _region(c, t)
        disp = tuple(x - y for x, y in zip(a, _canonical_avec(n, c.step)))
        vertices.append(QuiverVertex(chamber=c, translate=t,
                                     label=transport(disp)))
        regions.append((a, m))
        disps.append(disp)
    index = {(v.chamber, v.translate): i for i, v in enumerate(vertices)}

    if n == 1:
        center = index[chambers[0], (0,)]
        crossings = [(i, center) for i, v in enumerate(vertices)
                     if v.step == 1]
    else:
        zero = (0,) * n
        crossings = [(index[upper, zero], index[lower, zero])
                     for upper, lower in _walls(n, chambers, eps)]

    # group edges into torus classes and decorate lifts relative to the
    # class representative (smallest displacement wins, deterministically)
    classes = {}
    for s, t in crossings:
        (sa, sm), (ta, tm) = regions[s], regions[t]
        ckey = (vertices[s].step, vertices[t].step,
                tuple(x - y for x, y in zip(sa, ta)), sm - tm)
        classes.setdefault(ckey, []).append((s, t))

    size = [sum(map(abs, d)) for d in disps]
    edges = []
    for members in classes.values():
        base, _ = min(members, key=lambda e: (size[e[0]], size[e[1]],
                                              disps[e[0]], disps[e[1]]))
        for s, t in members:
            shift = tuple(x - y for x, y in zip(disps[s], disps[base]))
            edges.append(QuiverEdge(source=s, target=t,
                                    label=transport(shift)))
    edges.sort(key=lambda e: (e.source, e.target))
    return ChamberQuiver(n=n, vertices=tuple(vertices), edges=tuple(edges),
                         generators=tuple(pic))


# ---------------------------------------------------------------------------
# SVG output


def _svg_header(w, h):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')


def _fmt(x):
    return f"{float(x):.2f}"


def _svg_line(x1, y1, x2, y2, color, width):
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"/>')


def _svg_text(x, y, text, size=14):
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="middle" font-family="monospace">{text}</text>')


def _emit_components_1d(components):
    size = 300
    cx = cy = size / 2
    radius = 100
    parts = [_svg_header(size, size)]
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" '
                 f'stroke="black" stroke-width="2"/>')
    for comp in components:
        if comp.cone.is_zero():
            continue
        theta = 2 * pi * float(comp.character[0])
        px = cx + radius * cos(theta)
        py = cy - radius * sin(theta)
        sign = comp.cone.rays[0][0]
        tick = 28 if sign > 0 else -28
        ex = cx + (radius + tick) * cos(theta)
        ey = cy - (radius + tick) * sin(theta)
        parts.append(_svg_line(px, py, ex, ey, "blue", 2))
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                     f'fill="blue"/>')
        parts.append(_svg_text(ex, ey - 6, str(comp.character[0]), 11))
    parts.append("</svg>")
    return "\n".join(parts)


def _wall_segments_2d(normal, offset):
    """Segments of {<x, normal> = offset mod 1} inside the unit square."""
    gx, gy = normal
    segs = []
    lo = min(0, gx) + min(0, gy)
    hi = max(0, gx) + max(0, gy)
    c = Fraction(offset)
    k = Fraction(c - hi).__ceil__()
    while c - k >= lo:
        level = c - k
        pts = []
        for x in (Fraction(0), Fraction(1)):
            if gy != 0:
                y = Fraction(level - gx * x, gy)
                if 0 <= y <= 1:
                    pts.append((x, y))
        for y in (Fraction(0), Fraction(1)):
            if gx != 0:
                x = Fraction(level - gy * y, gx)
                if 0 <= x <= 1:
                    pts.append((x, y))
        pts = sorted(set(pts))
        if len(pts) >= 2:
            segs.append((pts[0], pts[-1]))
        k += 1
    return segs


def _emit_components_2d(components):
    scale = 400
    pad = 30
    size = scale + 2 * pad

    def to_px(p):
        return (pad + scale * float(p[0]), pad + scale * (1 - float(p[1])))

    parts = [_svg_header(size, size)]
    parts.append(f'<rect x="{pad}" y="{pad}" width="{scale}" height="{scale}" '
                 f'fill="none" stroke="black" stroke-width="1.5"/>')
    for comp in components:
        tau = comp.cone.negated()  # back to the original cone
        if tau.is_zero():
            continue
        if tau.dim() == 1:
            g = tau.rays[0]
            offset = sum(Fraction(c) * x for c, x in zip(comp.character, g))
            for (p1, p2) in _wall_segments_2d(g, offset):
                x1, y1 = to_px(p1)
                x2, y2 = to_px(p2)
                parts.append(_svg_line(x1, y1, x2, y2, "blue", 2))
                # conormal hair ticks in the fiber direction
                nx, ny = (-float(v) for v in comp.cone.rays[0])
                ln = hypot(nx, ny) or 1.0
                for t in (0.25, 0.5, 0.75):
                    mx = x1 + t * (x2 - x1)
                    my = y1 + t * (y2 - y1)
                    parts.append(_svg_line(mx, my, mx - 9 * nx / ln,
                                           my + 9 * ny / ln, "blue", 1))
        else:
            px, py = to_px(comp.character)
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                         f'fill="blue"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _emit_chambers_2d(quiver: ChamberQuiver):
    eps = default_epsilon(2)
    scale = 400
    pad = 30
    size = scale + 2 * pad

    def to_px(p):
        return (pad + scale * float(p[0]), pad + scale * (1 - float(p[1])))

    parts = [_svg_header(size, size)]
    parts.append(f'<rect x="{pad}" y="{pad}" width="{scale}" height="{scale}" '
                 f'fill="none" stroke="black" stroke-width="1.5"/>')
    x1, y1 = to_px((eps, 0))
    x2, y2 = to_px((eps, 1))
    parts.append(_svg_line(x1, y1, x2, y2, "blue", 2))
    x1, y1 = to_px((0, eps))
    x2, y2 = to_px((1, eps))
    parts.append(_svg_line(x1, y1, x2, y2, "blue", 2))
    x1, y1 = to_px((0, 1))
    x2, y2 = to_px((1, 0))
    parts.append(_svg_line(x1, y1, x2, y2, "blue", 2))
    for v in quiver.vertices:
        pt = sample_point(v.chamber, eps)
        px, py = to_px(pt)
        text = format_monomial(v.label)
        parts.append(_svg_text(px, py, f"{v.chamber.flag_string()},{v.chamber.slant}", 11))
        parts.append(_svg_text(px, py + 13, text, 10))
    parts.append("</svg>")
    return "\n".join(parts)


def emit_svg(obj) -> str:
    """Deterministic SVG for skeleta of rank <= 2 and the chamber
    picture at n = 2."""
    if isinstance(obj, (Fan, StackyFan)):
        obj = fltz_components(obj)
    if isinstance(obj, ChamberQuiver):
        if obj.n == 2:
            return _emit_chambers_2d(obj)
        raise SkeletonError("SVG chamber output supports n = 2 only")
    components = list(obj)
    if not components:
        raise SkeletonError("nothing to draw")
    rank = components[0].cone.ambient_rank
    if rank == 1:
        return _emit_components_1d(components)
    if rank == 2:
        return _emit_components_2d(components)
    raise SkeletonError("SVG output supports n <= 2 only")
