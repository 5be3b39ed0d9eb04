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
serves both.  The complex for RHom(M, N) has one block per chain from
the support of M into the support of N: chains start only where M is
nonzero and grow only to objects that reach the support of N.  A
poset stores the up-set of each element and reads its order, covers
and linear extension from it; a product of posets takes each tuple's
up-set from its coordinates'.  Both are presented by arrows and
relations: the covers of a poset with every pair of cover paths
identified, and the n + 1 wall symbols per step of the chamber
category with the commuting squares.
A representation stores a matrix on each arrow only, as sparse
``{column: entry}`` rows (dense rows are accepted as input), checks the
relations, and composes the matrix of any other basis morphism along an
arrow path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement, product
from math import comb

from .fans import Cone, is_smooth_cone
from .picsym import PicMonomial, format_monomial
from .skeleton import (ChamberQuiver, UnsupportedConeError, chamber_quiver,
                       enumerate_chambers)
from .zlin import (IntMatrix, check_exact, check_ints, pivot_columns,
                   rational_inverse, rational_rank)


class ConError(ValueError):
    pass


class GenerationFailure(ConError):
    pass


# ---------------------------------------------------------------------------
# directed categories: objects, finite hom bases and composition, presented
# by arrows (``arrows``, ``factor``) and relations (``relations``); a basis
# morphism is a tuple whose first two entries are its source and target,
# and ``compose`` returns the basis morphism two of them compose to


def _check_pairs(elements, pairs, what):
    """Each element's position; raise ConError on a repeated element, or
    on the first pair that is not a 2-tuple or names a non-element."""
    index = {}
    for x in elements:
        if x in index:
            raise ConError(f"element {x!r} is repeated")
        index[x] = len(index)
    for pair in pairs:
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ConError(f"{what} {pair!r} is not a 2-tuple")
        for x in pair:
            if x not in index:
                raise ConError(f"{what} {pair!r} names {x!r}, which is not "
                               "an element")
    return index


class FinitePoset:
    """A finite poset; also acts as a directed category with 0/1 hom spaces.

    It stores one structure: ``_up`` maps each element to its up-set
    (itself and all above it) as dict keys in element order.  The order,
    the linear extension ``objects`` and the covers out of each element
    (kept on first use) are read from it, and validation runs in element
    order, so an invalid poset names one offender on every run.
    """

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        leq_pairs = tuple(leq_pairs)
        index = _check_pairs(self.elements, leq_pairs, "pair")
        up = {x: {x} for x in self.elements}
        for (x, y) in leq_pairs:
            up[x].add(y)
        self._up = {x: dict.fromkeys(sorted(s, key=index.__getitem__))
                    for x, s in up.items()}
        for x, above in self._up.items():
            for y in above:
                if y != x and x in self._up[y]:
                    raise ConError(f"antisymmetry fails on {x!r}, {y!r}")
        for above in self._up.values():
            for y in above:
                if not self._up[y].keys() <= above.keys():
                    raise ConError(f"transitivity fails through {y!r}")
        self.objects = self._linear_extension(index)
        self._covers_out = {}
        self._relations = None

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
        up = {x: {x} for x in elements}
        for (x, y) in covers:
            up[x].add(y)
        for z in elements:  # Warshall: close through each z in turn
            for x in elements:
                if z in up[x]:
                    up[x] |= up[z]
        return cls(elements, [(x, y) for x in elements for y in up[x]])

    @staticmethod
    def _product(factors):
        """The product order on tuples with one coordinate per factor: a
        tuple's up-set is the product of its coordinates' up-sets."""
        elems = list(product(*(f.elements for f in factors)))
        pairs = [(a, b) for a in elems
                 for b in product(*(f._up[x] for f, x in zip(factors, a)))]
        return FinitePoset(elems, pairs)

    def product(self, other):
        return self._product((self, other))

    def power(self, k):
        """The product order on k-tuples; k = 0 gives the one-point poset."""
        if type(k) is not int or k < 0:
            raise ConError(f"power needs an int k >= 0, not {k!r}")
        return self._product((self,) * k)

    def leq(self, x, y):
        return y in self._up.get(x, ())

    def _linear_extension(self, index):
        """Each next object is the minimal element left of least ``repr``
        (ties in element order)."""
        # below[y] counts the elements left that are <= y, y included
        below = Counter(y for above in self._up.values() for y in above)
        ready = [(repr(x), index[x], x) for x in self.elements
                 if below[x] == 1]
        heapify(ready)
        out = []
        while ready:
            x = heappop(ready)[2]
            out.append(x)
            for y in self._up[x]:
                below[y] -= 1
                if below[y] == 1:
                    heappush(ready, (repr(y), index[y], y))
        return tuple(out)

    def _covers_from(self, x):
        """The covers out of x, in element order: the elements above x
        that lie above no other element above x."""
        out = self._covers_out.get(x)
        if out is None:
            above = [y for y in self._up[x] if y != x]
            over = {z for y in above for z in self._up[y] if z != y}
            out = self._covers_out[x] = tuple(y for y in above
                                              if y not in over)
        return out

    def covers(self):
        return tuple((x, y) for x in self.elements
                     for y in self._covers_from(x))

    def height(self):
        """The length of a longest chain, in one pass down the objects."""
        h = {}
        for x in reversed(self.objects):
            h[x] = max((h[y] + 1 for y in self._up[x] if y != x), default=0)
        return max(h.values(), default=0)

    # directed-category protocol -------------------------------------------
    def hom_basis(self, x, y):
        if x == y:
            return ()
        return ((x, y),) if self.leq(x, y) else ()

    def compose(self, f, g):
        # f: x -> y then g: y -> z
        return (f[0], g[1])

    def arrows(self):
        """The covers, as ``(source, target, morphism)`` triples."""
        return tuple((x, y, (x, y)) for (x, y) in self.covers())

    def factor(self, f):
        """``(a, g)`` with f = a then g: the first cover a out of f's source
        that lies below f's target; f must not be a cover."""
        x, y = f
        for b in self._covers_from(x) if x in self._up else ():
            if b != y and y in self._up[b]:
                return (x, b), (b, y)
        raise ConError(f"{f!r} is not a composite of covers")

    def relations(self):
        """Triples ``(a, g, f)``: cover a then g must compose to f.

        For each x < y that is not a cover, one triple per first cover
        (x, b) with b <= y other than the one :meth:`factor` picks.  A
        representation satisfying them gives every cover path from x to
        y the same map (by induction on the length of the path), which
        diamonds alone would not: two disjoint chains from x to y share
        no square.  The tuple is built on the first call and kept.
        """
        if self._relations is None:
            out = []
            for x, above in self._up.items():
                firsts = self._covers_from(x)
                for y in above:
                    if y == x or y in firsts:
                        continue
                    _, *others = (b for b in firsts if y in self._up[b])
                    out += [((x, b), (b, y), (x, y)) for b in others]
            self._relations = tuple(out)
        return self._relations

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

    A basis morphism is the tuple ``(s, t, exponents)``.  The basis of
    each hom space is built once, with the monomials of each degree in
    increasing order of their exponent tuples, and :meth:`hom_basis`
    returns the stored tuple.
    """

    def __init__(self, n):
        if type(n) is not int or n < 1:
            raise ConError(f"chamber category needs an int n >= 1, not {n!r}")
        self.n = n
        self.objects = tuple(range(n + 1))  # step classes
        self._arrows = tuple((s, s - 1, self.arrow(s, i))
                             for s in range(1, n + 1) for i in range(n + 1))
        monomials = {e: _monomials(n + 1, e) for e in range(1, n + 1)}
        self._bases = {(s, t): tuple([(s, t, m) for m in monomials[s - t]])
                       for s in self.objects for t in range(s)}
        self._relations = None

    def hom_basis(self, s, t):
        return self._bases.get((s, t), ())

    def compose(self, f, g):
        (s, t, m1) = f
        (t2, u, m2) = g
        if t != t2:
            raise ConError("morphisms are not composable")
        return (s, u, tuple(a + b for a, b in zip(m1, m2)))

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
        first.  Any two words for one monomial differ by such swaps.  The
        tuple is built on the first call and kept.
        """
        if self._relations is None:
            n = self.n
            self._relations = tuple(
                (self.arrow(s, j), self.arrow(s - 1, i),
                 (s, s - 2, tuple(int(k in (i, j)) for k in range(n + 1))))
                for s in range(2, n + 1)
                for i in range(n + 1) for j in range(i + 1, n + 1))
        return self._relations

    def __repr__(self):
        return f"ChamberCategory(n={self.n})"


def _monomials(width, degree):
    """The exponent tuples of the monomials of ``degree`` in ``width``
    symbols, in increasing order.  The multisets of symbols come in
    increasing order, so their exponent tuples decrease."""
    out = []
    for c in combinations_with_replacement(range(width), degree):
        exps = [0] * width
        for i in c:
            exps[i] += 1
        out.append(tuple(exps))
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# representations


def _matrix(rows, key, shape):
    """An exact ``shape`` matrix as sparse ``{column: entry}`` rows.

    Each row of ``rows`` is a dense sequence of entries or such a dict
    with ``int`` columns in ``range(cols)``; every entry must be an
    ``int`` or a ``Fraction``, and only the nonzero ones are kept.
    """
    n_rows, cols = shape
    what = f"matrix on {key!r}"
    try:
        given = [row if isinstance(row, dict) else tuple(row) for row in rows]
    except TypeError:
        raise ConError(f"{what} is not a list of rows") from None
    if len(given) != n_rows or any(len(row) != cols for row in given
                                   if not isinstance(row, dict)):
        # a missing or empty matrix is the zero map, and so is a matrix
        # of empty rows to or from 0
        if given and ((n_rows and cols) or any(given)):
            raise ConError(f"matrix shape mismatch on {key!r}")
        given = [()] * n_rows
    out = []
    for row in given:
        row = row if isinstance(row, dict) else dict(enumerate(row))
        check_ints(row, ConError, f"{what}: column")
        for j in row:
            if not 0 <= j < cols:
                raise ConError(f"{what}: column {j} is out of range for "
                               f"source dimension {cols}")
        check_exact(row.values(), ConError, f"{what}: entry")
        out.append({j: x for j, x in row.items() if x})
    return tuple(out)


def _mat_mul(a, b):
    """The product ``a b`` of sparse-row matrices; cancelled entries go."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return tuple(out)


class CatRep:
    """A functor from a directed category to rational vector spaces.

    ``dims`` maps objects to nonnegative ``int`` dimensions (a missing
    object has dimension 0).  ``matrices`` maps arrows of the category
    (see its ``arrows()``) to exact matrices, target-dim rows by
    source-dim columns, with ``int`` or ``Fraction`` entries; a missing
    or empty (``[]``) matrix is the zero map of the arrow's shape.  Each
    matrix is stored as sparse ``{column: entry}`` rows of its nonzero
    entries, kept as given; dense rows are accepted as input.  The
    category's relations are checked on construction, so :meth:`matrix`
    gives any basis morphism the same matrix along every arrow path.  A
    relation (a, g, f) whose f starts or ends at an object of dimension
    0 is skipped: both of its sides are then the empty matrix of f's
    shape, which :func:`_matrix` has checked.  An object of dimension 0
    between f's ends is still checked through.
    """

    def __init__(self, category, dims, matrices):
        self.category = category
        for x, d in dims.items():
            if x not in category.objects:
                raise ConError(f"dimension given for {x!r}, which is not an "
                               f"object of {category!r}")
            if type(d) is not int or d < 0:
                raise ConError(f"dimension {d!r} at {x!r} is not a "
                               "nonnegative int")
        self.dims = {x: dims.get(x, 0) for x in category.objects}
        arrows = {a for _, _, a in category.arrows()}
        for key in matrices:
            if key not in arrows:
                raise ConError(f"{key!r} is not an arrow of {category!r}")
        self.matrices = {}
        for x, y, a in category.arrows():
            self.matrices[a] = _matrix(matrices.get(a, ()), a,
                                       (self.dims[y], self.dims[x]))
        self._composites = {}
        self._validate()

    def _then(self, a, g):
        """The matrix of arrow ``a`` followed by basis morphism ``g``."""
        return _mat_mul(self.matrix(g), self.matrices[a])

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
        dims = self.dims
        for a, g, f in self.category.relations():
            if not (dims[f[0]] and dims[f[1]]):
                continue  # both sides are the empty matrix of f's shape
            if self._then(a, g) != self.matrix(f):
                raise ConError(f"functoriality fails composing {a!r} then "
                               f"{g!r}")

    def dim_vector(self):
        return tuple(self.dims[x] for x in self.category.objects)


def corepresentable(category, v) -> CatRep:
    """The corepresentable functor k hom(v, -): projective at v.

    Its value at x has the basis hom(v, x) (the identity at v); an arrow
    acts by postcomposition, an ``int`` matrix with one 1 per column, in
    the row of the basis morphism that ``compose`` returns.
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
        rows = [{} for _ in basis[y]]
        for col, f in enumerate(basis[x]):
            h = a if f == "id" else category.compose(f, a)
            rows[position[y][h]][col] = 1
        matrices[a] = rows
    return CatRep(category, {x: len(hs) for x, hs in basis.items()}, matrices)


# ---------------------------------------------------------------------------
# derived homs via the nerve (bar) cochain complex


def _arcs(category):
    """Each object's basis morphisms out as ``(f, target)`` pairs, targets
    in object order, and :func:`_heights` of them; built on the first
    call and kept on the category."""
    table = getattr(category, "_arc_table", None)
    if table is None:
        arcs = {x: [(f, y) for y in category.objects
                    for f in category.hom_basis(x, y)]
                for x in category.objects}
        table = category._arc_table = (arcs, _heights(arcs))
    return table


def _heights(arcs):
    """Each object's longest chain out, keyed with every target of an
    arc before its source."""
    height = {}

    def visit(x):
        if x not in height:
            for _, y in arcs[x]:
                visit(y)
            height[x] = max((height[y] + 1 for _, y in arcs[x]), default=0)

    for x in arcs:
        visit(x)
    return height


def _chains(category, sources, targets):
    """The nondegenerate composable chains of basis morphisms that start
    in ``sources`` and end in ``targets``, by length.

    A chain of length p is ``(objects, morphisms)`` with p + 1 objects.
    A chain is extended only to objects from which a chain reaches
    ``targets``, found in one pass over the category's arcs (its basis
    morphisms, listed by source in object order by :func:`_arcs`), so each
    length lists exactly the chains from ``sources`` into ``targets``,
    in the order of the unrestricted enumeration when ``sources`` are
    in object order.  There is one list per length up to the category's
    longest chain, empty ones included.
    """
    arcs, height = _arcs(category)
    reaches = {}  # x reaches targets; height lists targets before sources
    for x in height:
        reaches[x] = x in targets or any(reaches[y] for _, y in arcs[x])
    arcs = {x: [(f, y) for f, y in out if reaches[y]]
            for x, out in arcs.items()}
    growing = [((x,), ()) for x in sources if reaches[x]]
    by_len = []
    for _ in range(max(height.values(), default=0) + 1):
        by_len.append([(objs, fs) for objs, fs in growing
                       if objs[-1] in targets])
        growing = [(objs + (y,), fs + (f,)) for objs, fs in growing
                   for f, y in arcs[objs[-1]]]
    return by_len


def _entries(m):
    """``(row, column, entry)`` of each nonzero entry of ``m``."""
    return [(i, j, x) for i, row in enumerate(m) for j, x in row.items()]


def hom_complex(M: CatRep, N: CatRep):
    """The nerve cochain complex computing RHom(M, N).

    Term p has one block per chain x_0 -> ... -> x_p of p basis
    morphisms from the support of M into the support of N: a map phi
    from M(x_0) to N(x_p), laid out row by row, blocks in chain order
    (a chain with M(x_0) = 0 or N(x_p) = 0 has an empty block and is not
    built).  One face rule builds the differential.  On a chain f_0,
    ..., f_p of p + 1 morphisms, face k drops f_0 (k = 0), replaces
    f_(k-1), f_k by the basis morphism they compose to (0 < k <= p) or
    drops f_p (k = p + 1), and contributes (-1)^k * L * phi(face) * R,
    where L is N(f_p) on the last face, R is M(f_0) on the first, and
    each is the identity otherwise.  The first face is left out when
    M(x_1) = 0 and the last when N(x_(p-1)) = 0: their blocks are
    empty.  There is one term per length up to the category's longest
    chain, so the term count does not depend on M and N.

    Each face is written as runs of entries.  A middle face is one
    diagonal of rows * cols entries (-1)^k at a fixed column offset; the
    first face copies the entries of M(f_0) into each row of phi; the
    last face spreads each entry of N(f_p), times (-1)^(p+1), along the
    identity of M(x_0).  Faces are written in the order k = 0, ..., p +
    1, each row of phi in turn, so each row's dict lists its entries in
    that order.

    Each entry of the differential is set once, by one face: the
    category is directed, so a chain's objects are distinct, and its
    faces, each dropping a different object, lie in different blocks;
    within a block, a face's pairs of nonzero entries of L and R reach
    distinct entries.

    Returns (dims, differentials): the dimension of each term and the
    sparse differentials d_p from term p to term p + 1, each a list of
    dims[p + 1] rows, each row a ``{column: entry}`` dict of the nonzero
    entries only.  An entry is ``int`` when both reps are and a
    ``Fraction`` where a ``Fraction`` entry of M or N takes part.
    """
    if M.category is not N.category:
        raise ConError("representations live on different categories")
    cat = M.category
    m_dims, n_dims = M.dims, N.dims
    chains = _chains(cat, [x for x in cat.objects if m_dims[x]],
                     {x for x in cat.objects if n_dims[x]})
    offsets, term_dims = [], []  # per term: chain -> block start; size
    for chs in chains:
        at, size = {}, 0
        for objs, fs in chs:
            at[objs, fs] = size
            size += n_dims[objs[-1]] * m_dims[objs[0]]
        offsets.append(at)
        term_dims.append(size)
    # the entry lists of M(f_0) and of N(f_p), each built once per call:
    # many chains share their first or last morphism
    firsts, lasts = {}, {}
    diffs = []
    for p in range(len(chains) - 1):
        d = [{} for _ in range(term_dims[p + 1])]
        below = offsets[p]
        for (objs, fs), row0 in offsets[p + 1].items():
            rows, cols = n_dims[objs[-1]], m_dims[objs[0]]
            size = rows * cols
            block = d[row0:row0 + size]
            width = m_dims[objs[1]]
            if width:  # else the first face's block is empty
                first = firsts.get(fs[0])
                if first is None:
                    first = firsts[fs[0]] = _entries(M.matrix(fs[0]))
                col0 = below[objs[1:], fs[1:]]
                for r, at in zip(range(0, size, cols),
                                 range(col0, col0 + rows * width, width)):
                    for u, j, b in first:
                        block[r + j][at + u] = b
            sign = 1
            for k in range(1, len(fs)):
                sign = -sign
                col0 = below[objs[:k] + objs[k + 1:],
                             fs[:k - 1] + (cat.compose(fs[k - 1], fs[k]),)
                             + fs[k + 1:]]
                for row, col in zip(block, range(col0, col0 + size)):
                    row[col] = sign
            if n_dims[objs[-2]]:  # else the last face's block is empty
                last = lasts.get(fs[-1])
                if last is None:
                    last = lasts[fs[-1]] = _entries(N.matrix(fs[-1]))
                col0 = below[objs[:-1], fs[:-1]]
                sign = -sign
                for i, v, a in last:
                    x, at = sign * a, col0 + v * cols
                    for row, col in zip(block[i * cols:(i + 1) * cols],
                                        range(at, at + cols)):
                        row[col] = x
        diffs.append(d)
    return term_dims, diffs


def rep_hom(M: CatRep, N: CatRep):
    """Graded dimensions of Hom and all higher Ext between two reps.

    Computed from the cochain complex whose p-th term collects, over
    nondegenerate chains of p composable basis morphisms, the maps from
    the value at the chain's source into the value at its target; exact
    because the category is directed.  Returns the list of Ext^i
    dimensions, ending at the last potentially-nonzero degree.

    The differentials are ranked from the top down, with clearing (Chen
    and Kerber 2011).  Once d_p is eliminated, the rows of d_(p-1) at
    d_p's pivot columns are dropped: they are never read, and d_(p-1)
    keeps its rank.  This is exact for any complex: d_p d_(p-1) = 0
    puts the image of d_(p-1) inside the kernel of d_p, and on that
    kernel the coordinates at d_p's pivot columns are determined by the
    others (the pivot rows of an echelon form are triangular on those
    columns), so the projection that forgets them is injective on the
    image.  The rows d_p keeps span its whole row space, so its pivot
    columns are those of d_p itself.  The bottom differential
    needs only its rank.
    """
    term_dims, diffs = hom_complex(M, N)
    # ranks[p] is the rank of the differential into term p
    ranks = [0] * (len(term_dims) + 1)
    pivots = set()
    for p in range(len(diffs) - 1, 0, -1):
        pivots = pivot_columns(_uncleared(diffs[p], pivots))
        ranks[p + 1] = len(pivots)
    if diffs:
        ranks[1] = rational_rank(_uncleared(diffs[0], pivots))
    out = [dim - ranks[p] - ranks[p + 1] for p, dim in enumerate(term_dims)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _uncleared(d, cleared):
    """The rows of ``d`` whose index is not in ``cleared``, in order."""
    return [row for i, row in enumerate(d) if i not in cleared]


# ---------------------------------------------------------------------------
# Cartan matrix and Euler form


def cartan_matrix(category) -> IntMatrix:
    """Hom-space dimensions between objects, identity included."""
    objs = category.objects
    return IntMatrix([[len(category.hom_basis(x, y)) + (1 if x == y else 0)
                       for y in objs] for x in objs])


def _cartan_inverse(category):
    """The inverse of the Cartan matrix as ``int`` rows, kept on the
    category: in object order the Cartan matrix of a directed category
    is unitriangular (checked), so the inverse is integral."""
    inverse = getattr(category, "_cartan_inv", None)
    if inverse is None:
        c = cartan_matrix(category).entries
        below = any(c[i][j] for i in range(len(c)) for j in range(i))
        above = any(c[j][i] for i in range(len(c)) for j in range(i))
        if (below and above) or any(c[i][i] != 1 for i in range(len(c))):
            raise ConError(f"the Cartan matrix of {category!r} is not "
                           "unitriangular in its object order")
        inverse = category._cartan_inv = [
            [x.numerator for x in row] for row in rational_inverse(c)]
    return inverse


def euler_form(category, d, e) -> int:
    """The K-theoretic pairing sum_i (-1)^i dim Ext^i on dimension vectors."""
    d, e = list(d), list(e)
    check_ints(d + e, ConError, "dimension vector entry")
    if len(d) != len(category.objects) or len(e) != len(category.objects):
        raise ConError("dimension vector length does not match object count")
    return sum(x * sum(c * y for c, y in zip(row, e))
               for x, row in zip(d, _cartan_inverse(category)))


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
    return [comb(n + k - 1 - s, n) if s < k else 0 for s in range(n + 1)]


def beilinson_generators(n: int):
    """The n+1 decomposition generators over the chamber set.

    The k-th generator carries rank Sym^(k-1-step) of the rank n+1
    bundle at each chamber of step below k, zero elsewhere, with the
    monomial prefix given by the wall letters of the chamber.
    """
    if type(n) is not int or n < 1:
        raise ConError(f"generators need an int n >= 1, not {n!r}")
    chambers = enumerate_chambers(n)
    out = []
    for k in range(1, n + 2):
        class_dims = tuple(_class_dims(n, k))
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
    if type(n) is not int or n < 1 or type(k) is not int:
        raise ConError(f"generator needs an int n >= 1 and an int k, not "
                       f"n = {n!r}, k = {k!r}")
    if category is None:
        category = ChamberCategory(n)
    elif not isinstance(category, ChamberCategory) or category.n != n:
        raise ConError(f"generator for n = {n} needs the chamber category "
                       f"of n = {n}, not {category!r}")
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
    check_ints(d, ConError, "dimension vector entry")
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
    Row k - 1 of the system is generator k's class vector, and the check
    reads it as two slices: a 1 at step k - 1 and zeros after it.
    """
    if type(n) is not int or n < 1:
        raise ConError(f"reduction needs an int n >= 1, not {n!r}")
    matrix = [_class_dims(n, k) for k in range(1, n + 2)]
    for k, row in enumerate(matrix):
        if row[k] != 1 or any(row[k + 1:]):
            raise GenerationFailure(
                "generator dimension vectors are not unimodular triangular")
    current = _class_vector(n, d)
    trace = []
    for k in range(n + 1, 0, -1):
        coeff = current[k - 1]
        current = [a - coeff * b for a, b in zip(current, matrix[k - 1])]
        trace.append(ReductionStep(k, coeff, tuple(current)))
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
