"""The constructible side, decategorified.

Finite posets (among them the l/c/r strata poset of an affine chart
with its two-point collapse onto the arrow poset) and the finite
directed categories presented by the chamber quiver with commuting
squares, their representations with exact rational matrices, derived
homs via the nerve (bar) cochain complex, Cartan matrices and Euler
forms, the display/dimension data of the ordered-decomposition
generators over the chamber set, the iterative cone reduction of
dimension vectors, and DOT export.

A finite poset is the special case of a directed category whose hom
spaces have dimension at most one; a single nerve-complex implementation
serves both.  Both are presented by arrows and relations: the covers of
a poset with every pair of cover paths identified, and the n + 1 wall
symbols per step of the chamber category with the commuting squares.
A representation stores matrices on the arrows only, checks the
relations, and composes the matrix of any other basis morphism along an
arrow path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .fans import Cone, is_smooth_cone
from .picsym import PicMonomial, format_monomial
from .skeleton import (ChamberQuiver, UnsupportedConeError, chamber_quiver,
                       enumerate_chambers)
from .zlin import IntMatrix, rational_inverse, rational_rank


class ConError(ValueError):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class GenerationFailure(ConError):
    pass


# ---------------------------------------------------------------------------
# directed categories: objects, finite hom bases and composition, presented
# by arrows (``arrows``, ``factor``) and relations (``relations``)


def _check_pairs(elements, pairs, what):
    """Raise ConError on a repeated element, or on the first pair that is
    not a 2-tuple or names a non-element."""
    known = set()
    for x in elements:
        if x in known:
            raise ConError(f"element {x!r} is repeated")
        known.add(x)
    for pair in pairs:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ConError(f"{what} {pair!r} is not a 2-tuple")
        for x in pair:
            if x not in known:
                raise ConError(f"{what} {pair!r} names {x!r}, which is not "
                               "an element")


class FinitePoset:
    """A finite poset; also acts as a directed category with 0/1 hom spaces."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        leq_pairs = tuple(leq_pairs)
        _check_pairs(self.elements, leq_pairs, "pair")
        pairs = set(leq_pairs)
        for x in self.elements:
            pairs.add((x, x))
        for (x, y) in pairs:
            if (y, x) in pairs and x != y:
                raise ConError(f"antisymmetry fails on {x!r}, {y!r}")
        for (x, y) in pairs:
            for (y2, z) in pairs:
                if y2 == y and (x, z) not in pairs:
                    raise ConError(f"transitivity fails through {y!r}")
        self._leq = frozenset(pairs)
        self.objects = self._linear_extension()
        self._covers = None

    @classmethod
    def chain(cls, n):
        return cls(range(n), [(i, j) for i in range(n) for j in range(i, n)])

    @classmethod
    def antichain(cls, n):
        return cls(range(n), [])

    @classmethod
    def from_covers(cls, elements, covers):
        elements = list(elements)
        covers = tuple(covers)
        _check_pairs(elements, covers, "cover")
        leq = {(x, x) for x in elements}
        adj = {x: [] for x in elements}
        for (x, y) in covers:
            adj[x].append(y)

        def reach(x):
            seen = {x}
            stack = [x]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        for x in elements:
            for y in reach(x):
                leq.add((x, y))
        return cls(elements, leq)

    def product(self, other):
        elems = [(a, b) for a in self.elements for b in other.elements]
        pairs = [((a, b), (c, d)) for (a, b) in elems for (c, d) in elems
                 if self.leq(a, c) and other.leq(b, d)]
        return FinitePoset(elems, pairs)

    def power(self, k):
        """The product order on k-tuples; k = 0 gives the one-point poset."""
        if not _is_int(k) or k < 0:
            raise ConError(f"power needs an int k >= 0, not {k!r}")
        elems = list(product(self.elements, repeat=k))
        pairs = [(a, b) for a in elems for b in elems
                 if all(self.leq(x, y) for x, y in zip(a, b))]
        return FinitePoset(elems, pairs)

    def leq(self, x, y):
        return (x, y) in self._leq

    def _linear_extension(self):
        remaining = list(self.elements)
        out = []
        while remaining:
            minimal = [x for x in remaining
                       if not any(self.leq(y, x) for y in remaining if y != x)]
            minimal.sort(key=repr)
            out.append(minimal[0])
            remaining.remove(minimal[0])
        return tuple(out)

    def covers(self):
        if self._covers is None:
            self._covers = tuple(
                (x, y) for x in self.elements for y in self.elements
                if x != y and self.leq(x, y) and not any(
                    z != x and z != y and self.leq(x, z) and self.leq(z, y)
                    for z in self.elements))
        return self._covers

    def height(self):
        best = 0
        for x in self.objects:
            best = max(best, self._height_from(x, {}))
        return best

    def _height_from(self, x, memo):
        if x in memo:
            return memo[x]
        succ = [y for y in self.elements
                if y != x and self.leq(x, y)]
        memo[x] = 0 if not succ else 1 + max(self._height_from(y, memo)
                                             for y in succ)
        return memo[x]

    # directed-category protocol -------------------------------------------
    def hom_basis(self, x, y):
        if x == y:
            return ()
        return ((x, y),) if self.leq(x, y) else ()

    def compose(self, f, g):
        # f: x -> y then g: y -> z
        return ((1, (f[0], g[1])),)

    def arrows(self):
        """The covers, as ``(source, target, morphism)`` triples."""
        return tuple((x, y, (x, y)) for (x, y) in self.covers())

    def factor(self, f):
        """``(a, g)`` with f = a then g: the first cover a out of f's source
        that lies below f's target; f must not be a cover."""
        x, y = f
        for (a, b) in self.covers():
            if a == x and b != y and self.leq(b, y):
                return (a, b), (b, y)
        raise ConError(f"{f!r} is not a composite of covers")

    def relations(self):
        """Triples ``(a, g, f)``: cover a then g must compose to f.

        For each x < y that is not a cover, one triple per first cover
        (x, b) with b <= y other than the one :meth:`factor` picks.  A
        representation satisfying them gives every cover path from x to
        y the same map (by induction on the length of the path), which
        diamonds alone would not: two disjoint chains from x to y share
        no square.
        """
        covers = self.covers()
        cover_set = set(covers)
        for x in self.elements:
            for y in self.elements:
                f = (x, y)
                if x == y or not self.leq(x, y) or f in cover_set:
                    continue
                first = self.factor(f)
                for (a, b) in covers:
                    if (a == x and self.leq(b, y)
                            and ((a, b), (b, y)) != first):
                        yield (a, b), (b, y), f

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


def strata_poset_affine(c: Cone):
    """Strata poset of the affine chart of a smooth cone, with its collapse.

    Returns ``(strata, arrows, collapse)``: the power of the poset
    c < l, c < r with one factor per ray of the cone, the power of the
    arrow poset 0 < 1, and the map between them.  The center stratum and
    its left neighbor have isomorphic stalks, so sheaves with skeletal
    singular support factor through the arrow poset; the collapse sends
    c and l to 0 and r to 1 in each factor.
    """
    if not is_smooth_cone(c):
        raise UnsupportedConeError("strata poset requires a smooth cone")
    k = len(c.rays)
    strata = FinitePoset.from_covers("lcr", [("c", "l"), ("c", "r")]).power(k)
    arrows = FinitePoset.chain(2).power(k)
    collapse = {e: tuple(int(x == "r") for x in e) for e in strata.elements}
    return strata, arrows, collapse


class ChamberCategory:
    """Torus-chamber category of the perturbed projective skeleton.

    One object per step class 0..n; morphisms from step s to step t < s
    are monomials of degree s - t in n + 1 wall symbols, with monomial
    multiplication as composition (all squares commute).  Its category
    of representations is the classical quiver model for the derived
    category of n-dimensional projective space.
    """

    def __init__(self, n):
        if not _is_int(n) or n < 1:
            raise ConError(f"chamber category needs an int n >= 1, not {n!r}")
        self.n = n
        self.objects = tuple(range(n + 1))  # step classes
        self._arrows = tuple((s, s - 1, self.arrow(s, i))
                             for s in range(1, n + 1) for i in range(n + 1))
        self._bases = {}
        for s in self.objects:
            for t in self.objects:
                if s > t:
                    self._bases[(s, t)] = tuple(
                        m for m in _monomials(n + 1, s - t))

    def hom_basis(self, s, t):
        if s == t:
            return ()
        return tuple((s, t, m) for m in self._bases.get((s, t), ()))

    def compose(self, f, g):
        (s, t, m1) = f
        (t2, u, m2) = g
        if t != t2:
            raise ConError("morphisms are not composable")
        return ((1, (s, u, tuple(a + b for a, b in zip(m1, m2)))),)

    def arrow(self, s, symbol):
        """The degree-one basis morphism s -> s-1 for one wall symbol."""
        exps = tuple(int(i == symbol) for i in range(self.n + 1))
        return (s, s - 1, exps)

    def arrows(self):
        """The n + 1 wall symbols out of each step s >= 1, as
        ``(source, target, morphism)`` triples."""
        return self._arrows

    def factor(self, f):
        """``(a, g)`` with f = a then g: a is the wall symbol of lowest
        index in f's monomial; f must have degree at least two."""
        s, t, m = f
        i = next(i for i, e in enumerate(m) if e)
        return self.arrow(s, i), (s - 1, t, m[:i] + (m[i] - 1,) + m[i + 1:])

    def relations(self):
        """The commuting squares, as triples ``(a, g, f)``: arrow a then
        g must compose to f.

        One triple per step s >= 2 and symbols i < j: the symbol j then
        the symbol i, against x_i x_j, whose :meth:`factor` takes i
        first.  Any two words for one monomial differ by such swaps.
        """
        for s in range(2, self.n + 1):
            for i in range(self.n + 1):
                for j in range(i + 1, self.n + 1):
                    m = tuple(int(k in (i, j)) for k in range(self.n + 1))
                    yield self.arrow(s, j), self.arrow(s - 1, i), (s, s - 2, m)

    def __repr__(self):
        return f"ChamberCategory(n={self.n})"


def _monomials(width, degree):
    if width == 1:
        yield (degree,)
        return
    for a in range(degree + 1):
        for rest in _monomials(width - 1, degree - a):
            yield (a,) + rest


# ---------------------------------------------------------------------------
# representations


def _matrix(rows, key):
    """An exact matrix as row tuples of ``int`` or ``Fraction`` entries."""
    try:
        m = tuple(tuple(row) for row in rows)
    except TypeError:
        raise ConError(f"matrix on {key!r} is not a list of rows") from None
    for row in m:
        for x in row:
            if not (_is_int(x) or isinstance(x, Fraction)):
                raise ConError(f"entry {x!r} of the matrix on {key!r} is not "
                               "an int or a Fraction")
    return m


def _mat_mul(a, b, cols):
    """The product ``a b`` of row-tuple matrices, skipping zero entries.

    ``cols`` is the column count of ``b``, which ``b`` cannot show when
    it has no rows.
    """
    sparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, sparse):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


class CatRep:
    """A functor from a directed category to rational vector spaces.

    ``dims`` maps objects to nonnegative ``int`` dimensions (a missing
    object has dimension 0).  ``matrices`` maps arrows of the category
    (see its ``arrows()``) to exact matrices, target-dim rows by
    source-dim columns, with ``int`` or ``Fraction`` entries, kept as
    given; a missing arrow is the zero map, and an empty matrix stands
    for the map to or from 0.  The category's relations are checked on
    construction, so :meth:`matrix` gives any basis morphism the same
    matrix along every arrow path.
    """

    def __init__(self, category, dims, matrices, validate=True):
        self.category = category
        for x, d in dims.items():
            if x not in category.objects:
                raise ConError(f"dimension given for {x!r}, which is not an "
                               f"object of {category!r}")
            if not _is_int(d) or d < 0:
                raise ConError(f"dimension {d!r} at {x!r} is not a "
                               "nonnegative int")
        self.dims = {x: dims.get(x, 0) for x in category.objects}
        self._sources = {a: x for x, _, a in category.arrows()}
        for key in matrices:
            if key not in self._sources:
                raise ConError(f"{key!r} is not an arrow of {category!r}")
        self.matrices = {}
        for x, y, a in category.arrows():
            rows, cols = self.dims[y], self.dims[x]
            m = _matrix(matrices.get(a, ()), a)
            if len(m) != rows or any(len(row) != cols for row in m):
                # an empty matrix stands for the map to or from 0
                if (rows and cols) or any(m):
                    raise ConError(f"matrix shape mismatch on {a!r}")
                m = tuple((0,) * cols for _ in range(rows))
            self.matrices[a] = m
        self._composites = {}
        if validate:
            self._validate()

    def _then(self, a, g):
        """The matrix of arrow ``a`` followed by basis morphism ``g``."""
        return _mat_mul(self.matrix(g), self.matrices[a],
                        self.dims[self._sources[a]])

    def matrix(self, f):
        """The matrix of a basis morphism, composed along an arrow path.

        Composites are cached on the representation.
        """
        m = self.matrices.get(f)
        if m is None:
            m = self._composites.get(f)
            if m is None:
                m = self._composites[f] = self._then(*self.category.factor(f))
        return m

    def _validate(self):
        for a, g, f in self.category.relations():
            if self._then(a, g) != self.matrix(f):
                raise ConError(f"functoriality fails composing {a!r} then "
                               f"{g!r}")

    def dim_vector(self):
        return tuple(self.dims[x] for x in self.category.objects)


def corepresentable(category, v) -> CatRep:
    """The corepresentable functor k hom(v, -): projective at v.

    Its value at x has the basis hom(v, x) (the identity at v); an arrow
    acts by postcomposition, a 0/1 ``int`` matrix read off ``compose``.
    On a poset this is the rank-one representation of the up-set of v
    with identity maps.
    """
    if v not in category.objects:
        raise ConError(f"{v!r} is not an object")
    basis = {x: ("id",) if x == v else category.hom_basis(v, x)
             for x in category.objects}
    position = {x: {h: i for i, h in enumerate(hs)}
                for x, hs in basis.items()}
    matrices = {}
    for x, y, a in category.arrows():
        mat = [[0] * len(basis[x]) for _ in basis[y]]
        for col, f in enumerate(basis[x]):
            terms = ((1, a),) if f == "id" else category.compose(f, a)
            for coeff, h in terms:
                mat[position[y][h]][col] += coeff
        matrices[a] = mat
    return CatRep(category, {x: len(hs) for x, hs in basis.items()}, matrices)


# ---------------------------------------------------------------------------
# derived homs via the nerve (bar) cochain complex


def _chains(category):
    """Nondegenerate composable chains of basis morphisms, by length.

    A chain of length p is ``(objects, morphisms)`` with p + 1 objects.
    """
    arcs = {x: [(f, y) for y in category.objects
                for f in category.hom_basis(x, y)]
            for x in category.objects}
    by_len = [[((x,), ()) for x in category.objects]]
    while True:
        longer = [(objs + (y,), fs + (f,)) for objs, fs in by_len[-1]
                  for f, y in arcs[objs[-1]]]
        if not longer:
            return by_len
        by_len.append(longer)


def _entries(m, dim):
    """``(row, column, entry)`` of each nonzero entry of ``m``; for ``m``
    None, of the identity of size ``dim``."""
    if m is None:
        return [(i, i, 1) for i in range(dim)]
    return [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row)
            if x]


def hom_complex(M: CatRep, N: CatRep):
    """The nerve cochain complex computing RHom(M, N).

    Term p has one block per chain x_0 -> ... -> x_p of p basis
    morphisms: a map phi from M(x_0) to N(x_p), laid out row by row,
    blocks in chain order.  One face rule builds the differential.  On
    a chain f_0, ..., f_p of p + 1 morphisms, face k drops f_0 (k = 0),
    composes f_(k-1) f_k (0 < k <= p) or drops f_p (k = p + 1), and adds
    sign * L * phi(face) * R, where L is N(f_p) on the last face, R is
    M(f_0) on the first, each is the identity otherwise, and sign is
    (-1)^k times the ``compose`` coefficient.

    Returns (dims, differentials): the dimension of each term and the
    dense differential matrices d_p, lists of rows mapping term p to
    term p + 1.  Entries are summed from ``int`` 0, so they are ``int``
    when both reps are and ``Fraction`` where a ``Fraction`` entry
    takes part.
    """
    if M.category is not N.category:
        raise ConError("representations live on different categories")
    cat = M.category
    chains = _chains(cat)
    offsets, term_dims = [], []  # per term: chain -> block start; size
    for chs in chains:
        at, size = {}, 0
        for objs, fs in chs:
            at[objs, fs] = size
            size += N.dims[objs[-1]] * M.dims[objs[0]]
        offsets.append(at)
        term_dims.append(size)
    dense_diffs = []
    for p in range(len(chains) - 1):
        dense = [[0] * term_dims[p] for _ in range(term_dims[p + 1])]
        for (objs, fs), row0 in offsets[p + 1].items():
            rows, cols = N.dims[objs[-1]], M.dims[objs[0]]
            if not rows or not cols:
                continue
            faces = [(1, (objs[1:], fs[1:]), None, M.matrix(fs[0]))]
            faces += [((-1) ** k * coeff, (objs[:k] + objs[k + 1:],
                                           fs[:k - 1] + (h,) + fs[k + 1:]),
                       None, None)
                      for k in range(1, len(fs))
                      for coeff, h in cat.compose(fs[k - 1], fs[k])]
            faces.append(((-1) ** len(fs), (objs[:-1], fs[:-1]),
                          N.matrix(fs[-1]), None))
            for sign, face, left, right in faces:
                col0 = offsets[p][face]
                width = M.dims[face[0][0]]
                right = _entries(right, cols)
                for i, v, a in _entries(left, rows):
                    for u, j, b in right:
                        dense[row0 + i * cols + j][col0 + v * width + u] += \
                            sign * a * b
        dense_diffs.append(dense)
    return term_dims, dense_diffs


def rep_hom(M: CatRep, N: CatRep):
    """Graded dimensions of Hom and all higher Ext between two reps.

    Computed from the cochain complex whose p-th term collects, over
    nondegenerate chains of p composable basis morphisms, the maps from
    the value at the chain's source into the value at its target; exact
    because the category is directed.  Returns the list of Ext^i
    dimensions, ending at the last potentially-nonzero degree.
    """
    term_dims, dense_diffs = hom_complex(M, N)
    # ranks[p] is the rank of the differential into term p
    ranks = [0] + [rational_rank(dense) for dense in dense_diffs] + [0]
    out = [dim - ranks[p] - ranks[p + 1] for p, dim in enumerate(term_dims)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Cartan matrix and Euler form


def cartan_matrix(category) -> IntMatrix:
    """Hom-space dimensions between objects, identity included."""
    objs = category.objects
    return IntMatrix([[len(category.hom_basis(x, y)) + (1 if x == y else 0)
                       for y in objs] for x in objs])


def euler_form(category, d, e) -> int:
    """The K-theoretic pairing sum_i (-1)^i dim Ext^i on dimension vectors."""
    objs = category.objects
    d = list(d)
    e = list(e)
    if len(d) != len(objs) or len(e) != len(objs):
        raise ConError("dimension vector length does not match object count")
    cinv = rational_inverse([list(r) for r in cartan_matrix(category).entries])
    total = sum(Fraction(d[i]) * cinv[i][j] * Fraction(e[j])
                for i in range(len(objs)) for j in range(len(objs)))
    if total.denominator != 1:
        raise ConError("Euler form did not evaluate to an integer")
    return int(total)


# ---------------------------------------------------------------------------
# generators of the ordered decomposition over the chamber set


@dataclass(frozen=True)
class BeilinsonGenerator:
    """Display data of the k-th decomposition generator.

    ``chamber_dims`` gives the rank of the symbolic bundle shown at each
    cube chamber; ``class_dims`` is the underlying dimension vector over
    the step classes (the objects of :class:`ChamberCategory`);
    ``decorations`` carries the explicit monomial prefix per chamber.
    """

    n: int
    k: int
    chamber_dims: dict
    decorations: dict
    class_dims: tuple


def _class_dims(n, k):
    """Rank of Sym^(k-1-s) of the rank n+1 bundle per step s; 0 from k."""
    return tuple(comb(n + k - 1 - s, n) if s < k else 0 for s in range(n + 1))


def beilinson_generators(n: int):
    """The n+1 decomposition generators over the chamber set.

    The k-th generator carries rank Sym^(k-1-step) of the rank n+1
    bundle at each chamber of step below k, zero elsewhere, with the
    monomial prefix given by the wall letters of the chamber.
    """
    if not _is_int(n) or n < 1:
        raise ConError(f"generators need an int n >= 1, not {n!r}")
    chambers = enumerate_chambers(n)
    out = []
    for k in range(1, n + 2):
        class_dims = _class_dims(n, k)
        dims = {}
        decs = {}
        for c in chambers:
            dims[c] = class_dims[c.step]
            mono = PicMonomial.unit(n)
            if c.step < k:
                for i, f in enumerate(c.flags):
                    if f == "S":
                        mono = mono * PicMonomial.generator(i, n)
            decs[c] = mono
        out.append(BeilinsonGenerator(n=n, k=k, chamber_dims=dims,
                                      decorations=decs,
                                      class_dims=class_dims))
    return out


def beilinson_rep(n: int, k: int, category: ChamberCategory | None = None) -> CatRep:
    """The k-th generator as a representation: the projective at step k-1."""
    if not _is_int(n) or n < 1 or not _is_int(k):
        raise ConError(f"generator needs an int n >= 1 and an int k, not "
                       f"n = {n!r}, k = {k!r}")
    if category is None:
        category = ChamberCategory(n)
    if not 1 <= k <= n + 1:
        raise ConError("generator index out of range")
    return corepresentable(category, k - 1)


# ---------------------------------------------------------------------------
# iterative cone reduction of dimension vectors


@dataclass(frozen=True)
class ReductionStep:
    k: int
    coefficient: int
    remainder: tuple


def _class_vector(n, d):
    d = list(d)
    for x in d:
        if not _is_int(x):
            raise ConError(f"dimension vector entry {x!r} is not an int")
    if len(d) == n + 1:
        return d
    chambers = enumerate_chambers(n)
    if len(d) != len(chambers):
        raise ConError(
            f"dimension vector must have length {n + 1} (step classes) or "
            f"{len(chambers)} (chambers)")
    classes = [None] * (n + 1)
    for c, val in zip(chambers, d):
        s = c.step
        if classes[s] is None:
            classes[s] = val
        elif classes[s] != val:
            raise ConError(
                "chamber dimension vector is not constant on a step class; "
                "it is not the display of any torus-level object")
    return classes


def reduce_dimension_vector(n: int, d):
    """Greedy elimination of a K-class against the generators, deepest first.

    Accepts a vector over the n+1 step classes, or a per-chamber display
    vector constant on step classes.  The generator classes form a
    unimodular triangular system (asserted), so the trace ends at zero
    after exactly n+1 steps and its coefficients reassemble the input.
    """
    if not _is_int(n) or n < 1:
        raise ConError(f"reduction needs an int n >= 1, not {n!r}")
    matrix = [_class_dims(n, k) for k in range(1, n + 2)]
    for k in range(n + 1):
        if matrix[k][k] != 1 or any(matrix[k][s] != 0 for s in range(k + 1, n + 1)):
            raise GenerationFailure(
                "generator dimension vectors are not unimodular triangular")
    current = _class_vector(n, d)
    trace = []
    for k in range(n + 1, 0, -1):
        s = k - 1
        coeff = current[s]
        current = [a - coeff * b for a, b in zip(current, matrix[k - 1])]
        trace.append(ReductionStep(k=k, coefficient=coeff,
                                   remainder=tuple(current)))
    if any(x != 0 for x in current):
        raise GenerationFailure(
            f"reduction did not reach zero within {n + 1} steps: {current}")
    return trace


# ---------------------------------------------------------------------------
# twisted representation templates and DOT export


def twisted_rep_template(n: int, pic) -> ChamberQuiver:
    """Chamber quiver with the vertex and edge monomials of a twisted object.

    For n = 2 this reproduces the standard twisted-object picture over
    the square fundamental domain (its lift convention differs from the
    label-comparison picture by one wall symbol); for other n the
    straight boundary-crossing convention is used.
    """
    pic = list(pic)
    if len(pic) != n:
        raise ConError("need one Pic generator per dimension")
    for m in pic:
        if not isinstance(m, PicMonomial) or m.n_generators != n:
            raise ConError(f"Pic entry {m!r} is not a PicMonomial with "
                           f"{n} generators")
    if n == 2:
        loops = [pic[0].inverse() * pic[1], pic[1]]
    else:
        loops = pic
    return chamber_quiver(n, pic, loop_monomials=loops)


def quiver_to_dot(quiver: ChamberQuiver, names=None) -> str:
    """Deterministic DOT digraph with monomial labels as attributes."""
    lines = ["digraph chambers {", "    rankdir=LR;"]
    for i, v in enumerate(quiver.vertices):
        mono = format_monomial(v.label, names)
        text = f"{v.chamber.flag_string()},{v.chamber.slant}"
        if v.translate != (0,) * quiver.n:
            text += "+"
        lines.append(
            f'    v{i} [label="{text}\\n{mono}", step={v.step}];')
    for e in quiver.edges:
        mono = format_monomial(e.label, names)
        lines.append(f'    v{e.source} -> v{e.target} [label="{mono}"];')
    lines.append("}")
    return "\n".join(lines)
