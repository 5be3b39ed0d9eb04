"""FLTZ skeleton combinatorics.

Components of the conical Lagrangian attached to a (stacky) fan, exact
chamber enumeration for the perturbed projective-space skeleton on the
torus, the chamber quiver with monodromy-twisted labels, and a small
deterministic SVG emitter for the 1- and 2-dimensional pictures.

The perturbation parameter is an exact rational: chambers are encoded by
sign vectors against the walls {x_i = eps} and {sum x = m}, never by
floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .fans import Cone, Fan, StackyFan
from .picsym import PicMonomial, format_monomial
from .zlin import IntMatrix, LatticeQuotient, kernel_basis, smith_normal_form


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
    columns of ``Fraction``s, and its sublattice is M = Z^n.
    """
    snf = smith_normal_form(beta.transpose())
    diag = snf.D.diagonal()
    n = beta.rows
    if any(d == 0 for d in diag) or len(diag) < n:
        raise SkeletonError("beta is not injective after dualizing; "
                            "cokernel of beta must be finite")
    sup = [tuple(Fraction(x, diag[i]) for x in snf.V.column(i))
           for i in range(n)]
    return LatticeQuotient(sup, IntMatrix.identity(n))


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
        for chi in sorted(characters):
            out.append(SkeletonComponent(
                cone=tau.negated(),
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


def _chamber_nonempty(flags, slant, eps):
    lows, highs = _box_bounds(flags, eps)
    lo, hi = sum(lows), sum(highs)
    return max(lo, Fraction(slant)) < min(hi, Fraction(slant + 1))


def enumerate_chambers(n: int, eps=None) -> list:
    """All nonempty chambers, found geometrically from exact sign vectors."""
    if n < 1:
        raise SkeletonError("chamber enumeration needs n >= 1")
    if eps is None:
        eps = default_epsilon(n)
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise SkeletonError("epsilon must lie strictly between 0 and 1/2")
    out = []
    for flags in product("SL", repeat=n):
        for slant in range(n):
            if _chamber_nonempty(flags, slant, eps):
                out.append(Chamber(flags=flags, slant=slant))
    return sorted(out, key=lambda c: (c.step, c.flags, c.slant))


def chamber_step_counts(n: int) -> list:
    """Closed-formula chamber counts by step: the independent route."""
    if n < 1:
        raise SkeletonError("step counts need n >= 1")
    counts = [1]
    for k in range(1, n):
        counts.append(sum(comb(n, j) for j in range(k + 1)))
    counts.append(sum(comb(n, j) for j in range(1, n + 1)))
    return counts


def sample_point(chamber: Chamber, eps=None):
    """A deterministic exact interior point of the chamber.

    Interpolates the box corners so that the coordinate sum hits the
    middle of the admissible slant interval.
    """
    n = chamber.n
    if eps is None:
        eps = default_epsilon(n)
    eps = Fraction(eps)
    lows, highs = _box_bounds(chamber.flags, eps)
    lo_sum, hi_sum = sum(lows), sum(highs)
    target_lo = max(lo_sum, Fraction(chamber.slant))
    target_hi = min(hi_sum, Fraction(chamber.slant + 1))
    if not target_lo < target_hi:
        raise SkeletonError(f"chamber {chamber} is empty")
    target = (target_lo + target_hi) / 2
    t = (target - lo_sum) / (hi_sum - lo_sum)
    return tuple(lo + t * (hi - lo) for lo, hi in zip(lows, highs))


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
        a = tuple((-1 if f == "S" else 0) + t
                  for f, t in zip(self.chamber.flags, self.translate))
        m = self.chamber.slant + sum(self.translate)
        return a, m


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

    def center_index(self):
        for i, v in enumerate(self.vertices):
            if v.step == 0:
                return i
        raise SkeletonError("quiver has no center vertex")

    def to_json(self):
        data = {
            "n": self.n,
            "chambers": [
                {
                    "flags": v.chamber.flag_string(),
                    "slant": v.chamber.slant,
                    "step": v.step,
                    "label": format_monomial(v.label),
                }
                for v in self.vertices
            ],
            "edges": [[e.source, e.target] for e in self.edges],
            "edge_labels": [format_monomial(e.label) for e in self.edges],
        }
        return json.dumps(data, sort_keys=True)


def chamber_quiver_json_data(text):
    """Parse the chamber-dump JSON back into chambers, labels, and edges."""
    data = json.loads(text)
    n = int(data["n"])
    chambers = []
    labels = []
    for entry in data["chambers"]:
        chambers.append(Chamber(flags=tuple(entry["flags"]),
                                slant=int(entry["slant"])))
        labels.append(entry["label"])
    edges = [tuple(e) for e in data["edges"]]
    return n, chambers, labels, edges


def _canonical_avec(n, step):
    # the lift (L,..,L,S,..,S with `step` trailing S) at slant zero
    return tuple(-1 if i >= n - step else 0 for i in range(n))


def _transport(loops, vec):
    out = PicMonomial.unit(loops[0].n_generators if loops else 0)
    for loop, e in zip(loops, vec):
        out = out * (loop ** e)
    return out


def chamber_quiver(n: int, pic=None, loop_monomials=None, eps=None) -> ChamberQuiver:
    """The chamber quiver on the fundamental domain with twisted labels.

    Vertices are the cube chambers (for n = 1 the boundary chamber is
    displayed twice, once per lift); edges are single wall crossings
    oriented from higher to lower step.  Crossing the i-th boundary of
    the domain multiplies a label by the i-th monomial, and each vertex
    carries the transport of its step class's canonical lift.
    """
    if pic is None:
        pic = [PicMonomial.unit(n) for _ in range(n)]
    pic = list(pic)
    if len(pic) != n:
        raise SkeletonError("need one Pic generator per dimension")
    loops = list(loop_monomials) if loop_monomials is not None else pic
    if eps is None:
        eps = default_epsilon(n)
    eps = Fraction(eps)

    chambers = enumerate_chambers(n, eps)
    lifts = [(c, (0,) * n) for c in chambers]
    if n == 1:
        # the {x = 0} wall sits on the domain boundary: show both lifts of
        # the outer chamber, matching the three-vertex picture
        outer = next(c for c in chambers if c.step == 1)
        lifts.append((outer, (1,)))

    vertices = []
    for c, t in lifts:
        a = tuple((-1 if f == "S" else 0) + tt for f, tt in zip(c.flags, t))
        v = tuple(x - y for x, y in zip(a, _canonical_avec(n, c.step)))
        vertices.append(QuiverVertex(chamber=c, translate=t,
                                     label=_transport(loops, v)))
    vertices.sort(key=lambda v: (v.step, v.chamber.flags, v.chamber.slant,
                                 v.translate))
    index = {(v.chamber, v.translate): i for i, v in enumerate(vertices)}

    raw_edges = []
    if n == 1:
        center = next(c for c in chambers if c.step == 0)
        outer = next(c for c in chambers if c.step == 1)
        raw_edges.append(((outer, (0,)), (center, (0,))))
        raw_edges.append(((outer, (1,)), (center, (0,))))
    else:
        for ci in chambers:
            for cj in chambers:
                if ci.step != cj.step + 1:
                    continue
                diff = [i for i in range(n) if ci.flags[i] != cj.flags[i]]
                if len(diff) == 1 and ci.slant == cj.slant:
                    i = diff[0]
                    if ci.flags[i] != "S":
                        continue
                    lows, highs = _box_bounds(ci.flags, eps)
                    lo = eps + sum(l for k, l in enumerate(lows) if k != i)
                    hi = eps + sum(h for k, h in enumerate(highs) if k != i)
                    if max(lo, Fraction(ci.slant)) < min(hi, Fraction(ci.slant + 1)):
                        raw_edges.append(((ci, (0,) * n), (cj, (0,) * n)))
                elif not diff and ci.slant == cj.slant + 1:
                    lows, highs = _box_bounds(ci.flags, eps)
                    if sum(lows) < Fraction(ci.slant) < sum(highs):
                        raw_edges.append(((ci, (0,) * n), (cj, (0,) * n)))

    # group edges into torus classes and decorate lifts relative to the
    # class representative (smallest lift wins, deterministically)
    def vertex_of(key):
        return vertices[index[key]]

    def vdisp(vertex):
        a, _ = vertex.region()
        return tuple(x - y for x, y in
                     zip(a, _canonical_avec(n, vertex.step)))

    classes = {}
    for (sk, tk) in raw_edges:
        s, t = vertex_of(sk), vertex_of(tk)
        (sa, sm), (ta, tm) = s.region(), t.region()
        ckey = (s.step, t.step,
                tuple(x - y for x, y in zip(sa, ta)), sm - tm)
        classes.setdefault(ckey, []).append((sk, tk))

    edges = []
    for ckey in sorted(classes):
        members = classes[ckey]
        ranked = sorted(
            members,
            key=lambda e: (sum(map(abs, vdisp(vertex_of(e[0])))),
                           sum(map(abs, vdisp(vertex_of(e[1])))),
                           vdisp(vertex_of(e[0])), vdisp(vertex_of(e[1]))))
        base_disp = vdisp(vertex_of(ranked[0][0]))
        for sk, tk in members:
            shift = tuple(x - y for x, y in
                          zip(vdisp(vertex_of(sk)), base_disp))
            edges.append(QuiverEdge(source=index[sk], target=index[tk],
                                    label=_transport(loops, shift)))
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


def _svg_line(x1, y1, x2, y2, color, width=1.5, dash=None):
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"{d}/>')


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
    import math
    for comp in components:
        if comp.cone.is_zero():
            continue
        theta = 2 * math.pi * float(comp.character[0])
        px = cx + radius * math.cos(theta)
        py = cy - radius * math.sin(theta)
        sign = comp.cone.rays[0][0]
        tick = 28 if sign > 0 else -28
        ex = cx + (radius + tick) * math.cos(theta)
        ey = cy - (radius + tick) * math.sin(theta)
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
                import math
                nx, ny = (-float(v) for v in comp.cone.rays[0])
                ln = math.hypot(nx, ny) or 1.0
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


def _emit_chambers_1d(quiver: ChamberQuiver):
    import math
    size = 300
    cx = cy = size / 2
    radius = 100
    eps = float(default_epsilon(1))
    parts = [_svg_header(size, size)]
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" '
                 f'stroke="black" stroke-width="2"/>')
    for frac in (0.0, eps):  # the two wall points on the circle
        theta = 2 * math.pi * frac
        px = cx + radius * math.cos(theta)
        py = cy - radius * math.sin(theta)
        parts.append(_svg_line(px, py, cx + (radius + 22) * math.cos(theta),
                               cy - (radius + 22) * math.sin(theta), "blue", 2))
    for v in quiver.vertices:
        pt = sample_point(v.chamber, default_epsilon(1))
        theta = 2 * math.pi * (float(pt[0]) + v.translate[0])
        px = cx + (radius - 24) * math.cos(theta)
        py = cy - (radius - 24) * math.sin(theta)
        parts.append(_svg_text(px, py, format_monomial(v.label), 10))
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


def emit_svg(obj, n=None) -> str:
    """Deterministic SVG for skeleta and chamber pictures, n <= 2 only."""
    if isinstance(obj, (Fan, StackyFan)):
        obj = fltz_components(obj)
    if isinstance(obj, ChamberQuiver):
        if obj.n == 2:
            return _emit_chambers_2d(obj)
        if obj.n == 1:
            return _emit_chambers_1d(obj)
        raise SkeletonError("SVG chamber output supports n <= 2 only")
    components = list(obj)
    if not components:
        raise SkeletonError("nothing to draw")
    rank = components[0].cone.ambient_rank
    if rank == 1:
        return _emit_components_1d(components)
    if rank == 2:
        return _emit_components_2d(components)
    raise SkeletonError("SVG output supports n <= 2 only")
