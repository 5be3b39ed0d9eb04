"""Exact integer linear algebra over ZZ.

Smith normal form with unimodular transforms, kernels and cokernels of
lattice maps, finite abelian groups with their characters, and quotients
of a rational superlattice of Z^n by Z^n with explicit coset
representatives.  Everything is arbitrary-precision: matrices hold Python
ints, rational data holds ``fractions.Fraction``.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from operator import mul


class ZlinError(ValueError):
    pass


def check_ints(values, error, what):
    """Raise ``error`` naming the first of ``values`` that is not an ``int``.

    "int" means exactly ``int``: a ``bool`` or another subclass is not.
    ``error`` is the caller's exception class, so the message names the
    caller's layer: ``f"{what} {x!r} is not an integer"``.  One pass; on
    CPython 3.11 this loop beats ``issuperset(map(type, values))`` for
    short and long sequences alike.
    """
    for x in values:
        if type(x) is not int:
            raise error(f"{what} {x!r} is not an integer")


def check_exact(values, error, what):
    """Raise ``error`` naming the first of ``values`` that is neither an
    ``int`` nor a ``Fraction``.

    As :func:`check_ints`, with ``Fraction`` and its subclasses also
    allowed; the message is ``f"{what} {x!r} is not an integer or a
    Fraction"``.
    """
    for x in values:
        if type(x) is not int and not isinstance(x, Fraction):
            raise error(f"{what} {x!r} is not an integer or a Fraction")


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """An immutable integer matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(map(tuple, entries))
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ZlinError("ragged rows in integer matrix")
            check_ints(row, ZlinError, "matrix entry")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _of(cls, rows):
        """A matrix on ``rows``, a tuple of equal-length tuples of ``int``,
        taken as they are: for the results of int arithmetic on entries
        that were checked when they came in."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", len(rows[0]) if rows else 0)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls._of(tuple(map(tuple, _identity_rows(n))))

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [tuple(c) for c in columns]
        if rows is None:
            if not columns:
                raise ZlinError("cannot infer row count of an empty column list")
            rows = len(columns[0])
        return cls([[c[i] for c in columns] for i in range(rows)])

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self):
        return IntMatrix._of(tuple(zip(*self.entries)))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ZlinError("shape mismatch in matrix product")
            columns = tuple(zip(*other.entries))
            return IntMatrix._of(tuple([
                tuple([sum(map(mul, row, col)) for col in columns])
                for row in self.entries]))
        # matrix * vector with int or Fraction entries
        vec = tuple(other)
        check_exact(vec, ZlinError, "vector entry")
        if self.cols != len(vec):
            raise ZlinError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ZlinError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)

    def is_diagonal(self):
        return all(self.entries[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


# ---------------------------------------------------------------------------
# exact elimination on sparse integer rows (shared by the geometric modules)


def _sparse_rows(rows):
    """Rows of Fractions/ints as sparse ``{col: int}`` rows, in order.

    A row is a sequence of entries, all sequence rows of one length, or
    a ``{column: entry}`` dict with nonnegative ``int`` columns.  Every
    entry must be an ``int`` or a ``Fraction``.  Zero entries are
    dropped; a dict row with none is kept as it is (the echelon copies
    a row before writing it).  If some entry is not an ``int``, each row
    is scaled by the lcm of its denominators.  No row is divided by its
    content: a rank does not depend on it, and :func:`_int_inverse`
    divides its rows once it has eliminated them.

    The checks run once per matrix, over all columns and all entries at
    once.  If one fails, the rows are checked again one at a time, so
    the error names the first bad row or entry, in row order.
    """
    rows = list(rows)
    sparse, dicts, lengths = [], [], set()
    for row in rows:
        if isinstance(row, dict):
            dicts.append(row)
            sparse.append({j: x for j, x in row.items() if x}
                          if 0 in row.values() else row)
        else:
            lengths.add(len(row))
            sparse.append({j: x for j, x in enumerate(row) if x})
    try:
        ints = _matrix_is_int(rows, dicts, lengths)
    except ZlinError:
        _check_rows(rows)
        raise
    if ints:
        return sparse
    return [dict(zip(r, _cleared(r.values())[0])) for r in sparse]


def _matrix_is_int(rows, dicts, lengths):
    """Whether every entry of ``rows`` is an ``int``, once the whole
    matrix passes the checks of :func:`_sparse_rows`; ``dicts`` are its
    dict rows and ``lengths`` the set of its sequence rows' lengths.  A
    failed check raises a :class:`ZlinError` that need not name the
    first bad row."""
    if len(lengths) > 1:
        raise ZlinError("ragged rows in rational matrix")
    values = rows
    if dicts:
        check_ints(chain.from_iterable(dicts), ZlinError, "column")
        if min(chain.from_iterable(dicts), default=0) < 0:
            raise ZlinError("negative column in sparse row")
        values = [row.values() if isinstance(row, dict) else row
                  for row in rows]
    try:
        check_ints(chain.from_iterable(values), ZlinError, "matrix entry")
    except ZlinError:
        check_exact(chain.from_iterable(values), ZlinError, "matrix entry")
        return False
    return True


def _check_rows(rows):
    """Raise the :class:`ZlinError` of the first bad row of ``rows`` or
    of its first bad entry, checking one row at a time."""
    ncols = None
    for row in rows:
        if isinstance(row, dict):
            try:
                check_ints(row, ZlinError, "column")
                bad = min(row, default=0) < 0
            except ZlinError:
                bad = True
            if bad:
                raise ZlinError(f"sparse row {row!r} has a column that is "
                                "not a nonnegative int")
            check_exact(row.values(), ZlinError, "matrix entry")
        else:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ZlinError("ragged rows in rational matrix")
            check_exact(row, ZlinError, "matrix entry")


def _primitive(r):
    """Divide the row ``r`` by the gcd of its entries, in place."""
    g = gcd(*r.values())
    if g != 1:
        for j in r:
            r[j] //= g


def _eliminate(r, p, col):
    """Clear column ``col`` of the row ``r`` against the pivot row ``p``,
    in place; ``r`` must be a row the caller owns.

    On a unit pivot (``p[col]`` is 1 or -1) this subtracts
    ``r[col] * p[col] * p``: no scaling and no content division.  On any
    other pivot it is the fraction-free ``a*r - b*p`` (Bareiss 1968),
    divided by its content.
    """
    c, pc = r[col], p[col]
    unit = pc == 1 or pc == -1
    if unit:
        b = c * pc
    else:
        g = gcd(c, pc)
        a, b = pc // g, c // g
        if a != 1:
            for j in r:
                r[j] *= a
    for j, y in p.items():
        v = r.get(j, 0) - b * y
        if v:
            r[j] = v
        else:
            del r[j]
    if not unit:
        _primitive(r)


def _echelon(rows):
    """Row echelon form of sparse integer rows, keyed by leading column.

    Rows are inserted one at a time; each is reduced against the pivot
    rows by :func:`_eliminate` until its leading column is new or it
    vanishes.  The echelon copies a row before writing it, the first
    time the row meets a pivot, and then reduces that copy in place, so
    the given rows are never written; a row that meets no pivot is kept
    as it is.  Entries stay integers throughout.
    """
    echelon = {}
    for r in rows:
        owned = False
        while r:
            lead = min(r)
            p = echelon.get(lead)
            if p is None:
                echelon[lead] = r
                break
            if not owned:
                r, owned = dict(r), True
            _eliminate(r, p, lead)
    return echelon


def pivot_columns(rows):
    """The pivot columns of a matrix given as rows of Fractions/ints: the
    leading columns of a row echelon form, as a set.

    Each row is a sequence of entries (all of one length) or a sparse
    ``{column: entry}`` dict, in which a missing column is zero.  An
    entry that is not an ``int`` or a ``Fraction``, or a column that is
    not a nonnegative ``int``, is a :class:`ZlinError`; these checks run
    once per matrix, and the error names the first bad row or entry.

    The set is the greedy column basis: column j is a pivot exactly when
    it is not a combination of the columns before it.  It depends only
    on the row space, so neither the order in which rows are eliminated
    nor dropping rows that the others span changes it.  The rows reach
    the echelon sparsest first: a stable sort by the number of nonzero
    entries (Markowitz 1957), so ties keep their given order.  A short
    row, eliminated early, becomes a short pivot and fills in the rows
    below it less.
    """
    return set(_echelon(sorted(_sparse_rows(rows), key=len)))


def rational_rank(rows):
    """Rank of a matrix given as rows of Fractions/ints: the number of
    its :func:`pivot_columns`, with the same input checks."""
    return len(pivot_columns(rows))


def _int_inverse(rows):
    """The inverse of a square matrix of Fractions/ints as ``(B, q)``:
    B a tuple of ``int`` row tuples and q the least positive ``int`` with
    A^-1 = B / q.

    Eliminates ``[A | I]`` to echelon form, back-substitutes, and then
    divides each row by its content.  Row i so ends primitive, as p_i e_i
    beside r_i, and r_i / p_i is row i of the inverse in lowest terms, so
    q is the lcm of the |p_i|.  A step on a unit pivot divides by no
    content, so a row is not primitive before that last division.  The
    rows of ``[A | I]`` are built here, so elimination may write to them.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ZlinError("inverse of a non-square matrix")
    echelon = _echelon(_sparse_rows(
        row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)))
    if any(lead not in echelon for lead in range(n)):
        raise ZlinError("matrix is singular")
    for col in reversed(range(n)):
        p = echelon[col]
        for lead in range(col):
            if col in echelon[lead]:
                _eliminate(echelon[lead], p, col)
    for r in echelon.values():
        _primitive(r)
    q = lcm(*(echelon[i][i] for i in range(n)))
    return tuple(tuple(echelon[i].get(n + j, 0) * (q // echelon[i][i])
                       for j in range(n)) for i in range(n)), q


def rational_inverse(rows):
    """Inverse of a square matrix of Fractions/ints, as rows of Fractions."""
    b, q = _int_inverse(rows)
    return [[Fraction(x, q) for x in row] for row in b]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal (d1 | d2 | ...)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix


def _identity_rows(n):
    """The rows of the n x n identity, as lists."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form of an arbitrary integer matrix.

    The pivot is always the smallest nonzero entry in absolute value of
    the remaining submatrix, with ties broken by row-major position, so
    the output is deterministic.  Diagonal entries are nonnegative and
    form a divisibility chain.  Rows of d above the pivot are zero from
    the pivot column on, so column operations skip them.
    """
    nrows, ncols = A.rows, A.cols
    d = [list(row) for row in A.entries]
    u = _identity_rows(nrows)
    v = _identity_rows(ncols)
    for t in range(min(nrows, ncols)):
        while True:
            # the first smallest |x| in row-major order; nothing beats a 1
            best = 0
            for i in range(t, nrows):
                row = d[i]
                for j in range(t, ncols):
                    x = row[j]
                    if x:
                        if x < 0:
                            x = -x
                        if x < best or not best:
                            best, pi, pj = x, i, j
                            if x == 1:
                                break
                if best == 1:
                    break
            if not best:
                break
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d[t:]:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            top, utop = d[t], u[t]
            if top[t] < 0:
                d[t] = top = [-x for x in top]
                u[t] = utop = [-x for x in utop]
            p = top[t]
            dirty = False
            for i in range(t + 1, nrows):
                row = d[i]
                if row[t]:
                    q = row[t] // p
                    d[i] = row = [a - q * b for a, b in zip(row, top)]
                    u[i] = [a - q * b for a, b in zip(u[i], utop)]
                    if row[t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if top[j]:
                    q = top[j] // p
                    for row in d[t:]:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                continue
            # divisibility sweep: the pivot must divide the whole tail
            offender = None
            if p != 1:
                offender = next((i for i in range(t + 1, nrows)
                                 if any(x % p for x in d[i][t + 1:])), None)
            if offender is None:
                break
            d[t] = [a + b for a, b in zip(top, d[offender])]
            u[t] = [a + b for a, b in zip(utop, u[offender])]
        if not best:
            # the rest of d is zero
            break
    return SnfDecomposition(IntMatrix._of(tuple(map(tuple, u))),
                            IntMatrix._of(tuple(map(tuple, d))),
                            IntMatrix._of(tuple(map(tuple, v))))


def kernel_basis(A: IntMatrix):
    """Basis of the integer kernel {x : A x = 0}, as a list of columns.

    The basis spans the full (saturated) kernel lattice because the SNF
    column transform is unimodular.
    """
    snf = smith_normal_form(A)
    diag = snf.D.diagonal()
    cols = []
    for j in range(A.cols):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            cols.append(snf.V.column(j))
    return cols


# ---------------------------------------------------------------------------
# finite abelian groups and characters


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z^free_rank + Z/f1 + ... with f1 | f2 | ... and every fi >= 2."""

    invariant_factors: tuple
    free_rank: int = 0

    def __post_init__(self):
        factors = tuple(self.invariant_factors)
        check_ints(factors + (self.free_rank,), ZlinError, "group datum")
        object.__setattr__(self, "invariant_factors", factors)
        for f in factors:
            if f < 2:
                raise ZlinError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ZlinError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ZlinError("free rank must be nonnegative")

    @property
    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite:
            raise ZlinError("group is infinite")
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def characters(self):
        """All characters, in lexicographic component order."""
        if not self.is_finite:
            raise ZlinError("character enumeration needs a finite group")
        return [Character._of(c, self) for c in
                product(*(range(f) for f in self.invariant_factors))]

    def zero_character(self):
        return Character._of((0,) * len(self.invariant_factors), self)

    def check_character(self, value, what):
        """Raise a :class:`ZlinError` naming ``what`` unless ``value`` is a
        character of this group (tested by identity first)."""
        if not isinstance(value, Character) or (
                value.group is not self and value.group != self):
            raise ZlinError(f"{what} {value!r} is not a character of {self}")


@dataclass(frozen=True)
class Character:
    """An element of the character group, one residue per invariant factor."""

    components: tuple
    group: FiniteAbelianGroup

    def __post_init__(self):
        if not self.group.is_finite:
            raise ZlinError("characters require a finite group")
        factors = self.group.invariant_factors
        comps = tuple(self.components)
        check_ints(comps, ZlinError, "character component")
        if len(comps) != len(factors):
            raise ZlinError("component count does not match invariant factors")
        comps = tuple(c % f for c, f in zip(comps, factors))
        object.__setattr__(self, "components", comps)

    @classmethod
    def _of(cls, components, group):
        """The character with ``components``, a tuple of ``int`` residues
        already reduced modulo ``group``'s invariant factors, taken as they
        are: for values computed from a checked group."""
        chi = object.__new__(cls)
        object.__setattr__(chi, "components", components)
        object.__setattr__(chi, "group", group)
        return chi

    def __add__(self, other):
        self.group.check_character(other, "operand")
        return Character._of(tuple(
            (a + b) % f for a, b, f in zip(self.components, other.components,
                                           self.group.invariant_factors)),
            self.group)

    def __sub__(self, other):
        self.group.check_character(other, "operand")
        return Character._of(tuple(
            (a - b) % f for a, b, f in zip(self.components, other.components,
                                           self.group.invariant_factors)),
            self.group)

    def __neg__(self):
        return Character._of(tuple(
            -a % f for a, f in zip(self.components,
                                   self.group.invariant_factors)),
            self.group)

    def is_zero(self):
        return all(c == 0 for c in self.components)


def cokernel(A: IntMatrix) -> FiniteAbelianGroup:
    """coker(A) = Z^rows / im(A) as a finite abelian group with free part."""
    diag = smith_normal_form(A).D.diagonal()
    nonzero = [d for d in diag if d != 0]
    return FiniteAbelianGroup(
        invariant_factors=tuple(d for d in nonzero if d > 1),
        free_rank=A.rows - len(nonzero),
    )


# ---------------------------------------------------------------------------
# lattice quotients with explicit representatives


class LatticeQuotient:
    """A superlattice of Z^n modulo Z^n.

    The superlattice basis is given by columns (rational entries allowed)
    and kept in ``superlattice_basis``; it must contain Z^n.  Provides the
    quotient group, a complete duplicate-free transversal of coset
    representatives, the character of any superlattice vector and its
    inverse, ``representative``, read from a table of integer numerators
    over ``denominator`` filled once here.  An empty basis gives the
    trivial quotient of rank 0.

    Everything is computed in integers over one denominator, the lcm e of
    the basis denominators, kept as ``denominator``: the basis is s / e
    with s integral, and s^-1 = B / q comes from :func:`_int_inverse`, so
    a vector y / e lies in the superlattice iff B y is divisible by q.
    A public ``Fraction`` is made only when it is asked for.
    """

    def __init__(self, superlattice_basis):
        sup = _exact_columns(superlattice_basis)
        n = len(sup)
        if any(len(col) != n for col in sup):
            raise ZlinError("quotient needs a square superlattice basis")
        e = lcm(*(x.denominator for col in sup for x in col))
        s_inv, q = _int_inverse(
            [x.numerator * (e // x.denominator) for x in row]
            for row in zip(*sup))
        # Z^n in superlattice coordinates is the basis inverse e B / q,
        # which must be integral; it is nonsingular, so the index is finite
        if any(e * x % q for row in s_inv for x in row):
            raise ZlinError("sublattice is not contained in the superlattice")
        snf = smith_normal_form(IntMatrix._of(tuple(
            tuple(e * x // q for x in row) for row in s_inv)))
        diag = snf.D.diagonal()
        self.superlattice_basis = [tuple(map(Fraction, col)) for col in sup]
        self.denominator = e
        self._inverse = s_inv, q
        self.group = FiniteAbelianGroup(tuple(d for d in diag if d > 1))
        # adapted superlattice basis: columns of S' = S U^{-1}, which is
        # V D^{-1} since U S^{-1} V = D, so its numerators over e are
        # e V D^{-1} (integral, as S' = s U^{-1} / e with U unimodular);
        # the i-th column generates a cyclic summand of order diag[i] in
        # the quotient, and the inverse of S' is U S^{-1} = e U B / q
        adapted = [[e * x // d for x, d in zip(row, diag)]
                   for row in snf.V.entries]
        self._adapted_inv = [[e * x for x in row]
                             for row in (snf.U @ IntMatrix._of(s_inv)).entries]
        self._diag = diag
        self._rank = n
        self.index = prod(diag)
        # the representative of chi is sum_i c_i S'_i, with c_i the
        # component of chi on the i-th cyclic summand (0 off them); it is
        # kept as its integer numerators over e
        cyclic = [[x for x, d in zip(row, diag) if d > 1] for row in adapted]
        self._numerators = {
            comps: tuple(sum(map(mul, comps, row)) for row in cyclic)
            for comps in product(*map(range, self.group.invariant_factors))}

    def __repr__(self):
        return f"LatticeQuotient({self.superlattice_basis!r})"

    def character_of(self, vec) -> Character:
        """Character of a superlattice vector in the quotient group."""
        vec = tuple(vec)
        check_exact(vec, ZlinError, "vector entry")
        if len(vec) != self._rank:
            raise ZlinError(f"vector {vec!r} has length {len(vec)}, "
                            f"expected {self._rank}")
        v, g = _cleared(vec)
        den = self._inverse[1] * g
        comps = []
        for row, d in zip(self._adapted_inv, self._diag):
            num = sum(map(mul, row, v))
            if num % den:
                raise ZlinError("vector does not lie in the superlattice")
            if d > 1:
                comps.append(num // den % d)
        return Character._of(tuple(comps), self.group)

    @property
    def representatives(self):
        """The transversal, as ``Fraction`` tuples: the representative of
        each character, in the order of ``group.characters()``."""
        return [self.representative(chi) for chi in self.group.characters()]

    def representative(self, chi) -> tuple:
        """The transversal element of ``chi``, inverse to ``character_of``.

        A character of another group is a :class:`ZlinError`.
        """
        self.group.check_character(chi, "chi")
        e = self.denominator
        return tuple(Fraction(y, e) for y in self._numerators[chi.components])


def _exact_columns(basis):
    """Columns of a basis as tuples of checked ``int``/``Fraction`` entries."""
    cols = [tuple(col) for col in basis]
    for col in cols:
        check_exact(col, ZlinError, "basis entry")
    return cols


def _cleared(vec):
    """``(c, g)`` with ``vec = c / g``: ``int`` entries c over the lcm g of
    the denominators of ``vec``'s ``int``/``Fraction`` entries."""
    g = lcm(*(x.denominator for x in vec))
    return [x.numerator * (g // x.denominator) for x in vec], g
