"""Exact integer linear algebra over ZZ.

Smith normal form with unimodular transforms, kernels and cokernels of
lattice maps, finite abelian groups with their characters, and quotients
of a lattice by a finite-index sublattice with explicit coset
representatives.  Everything is arbitrary-precision: matrices hold Python
ints, rational data holds ``fractions.Fraction``.  No floating point
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod


class ZlinError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """An immutable integer matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ZlinError("ragged rows in integer matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

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

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

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
            return IntMatrix(
                [[sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(self.cols))
                  for j in range(other.cols)]
                 for i in range(self.rows)])
        # matrix * vector with int or Fraction entries
        vec = tuple(other)
        if self.cols != len(vec):
            raise ZlinError("shape mismatch in matrix-vector product")
        return tuple(sum(self.entries[i][k] * vec[k] for k in range(self.cols))
                     for i in range(self.rows))

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

    def rank(self):
        return rational_rank(self.entries)

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
    """Rows of Fractions/ints as primitive sparse ``{col: int}`` rows.

    Each row is scaled by the lcm of its denominators and divided by its
    content; zero rows are dropped.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ZlinError("ragged rows in rational matrix")
        r = {j: x for j, x in enumerate(row) if x}
        if not r:
            continue
        den = lcm(*(x.denominator for x in r.values()))
        r = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
        out.append(_primitive(r))
    return out


def _primitive(r):
    g = gcd(*r.values())
    if g == 1:
        return r
    return {j: x // g for j, x in r.items()}


def _eliminate(r, p, col):
    """Fraction-free ``a*r - b*p`` clearing column ``col``, made primitive."""
    g = gcd(r[col], p[col])
    a, b = p[col] // g, r[col] // g
    out = {j: a * x for j, x in r.items()} if a != 1 else dict(r)
    for j, y in p.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _echelon(rows):
    """Row echelon form of sparse integer rows, keyed by leading column.

    Rows are inserted one at a time; each is reduced against the pivot
    rows by fraction-free elimination (Bareiss 1968) until its leading
    column is new or it vanishes.  Entries stay integers throughout.
    """
    echelon = {}
    for r in rows:
        while r:
            lead = min(r)
            p = echelon.get(lead)
            if p is None:
                echelon[lead] = r
                break
            r = _eliminate(r, p, lead)
    return echelon


def rational_rank(rows):
    """Rank of a matrix given as a list of rows of Fractions/ints."""
    return len(_echelon(_sparse_rows(rows)))


def rational_inverse(rows):
    """Inverse of a square matrix of Fractions/ints, as rows of Fractions.

    Eliminates ``[A | I]`` to echelon form, then back-substitutes.
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
                echelon[lead] = _eliminate(echelon[lead], p, col)
    return [[Fraction(echelon[i].get(n + j, 0), echelon[i][i]) for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal (d1 | d2 | ...)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def check(self, A):
        if (self.U @ A) @ self.V != self.D:
            raise ZlinError("SNF transform identity violated")
        return True


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form of an arbitrary integer matrix.

    The pivot is always the smallest nonzero entry in absolute value of
    the remaining submatrix, with ties broken by row-major position, so
    the output is deterministic.  Diagonal entries are nonnegative and
    form a divisibility chain.
    """
    nrows, ncols = A.rows, A.cols
    d = [list(row) for row in A.entries]
    u = [list(row) for row in IntMatrix.identity(nrows).entries]
    v = [list(row) for row in IntMatrix.identity(ncols).entries]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    for t in range(min(nrows, ncols)):
        while True:
            best = find_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            swap_rows(t, pi)
            swap_cols(t, pj)
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t] != 0:
                    q = d[i][t] // p
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    q = d[t][j] // p
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # divisibility sweep: the pivot must divide the whole tail
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t >= min(nrows, ncols):
            break

    return SnfDecomposition(IntMatrix(u), IntMatrix(d), IntMatrix(v))


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
        factors = tuple(int(f) for f in self.invariant_factors)
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
        return [Character(c, self) for c in
                product(*(range(f) for f in self.invariant_factors))]

    def character(self, components):
        return Character(components, self)

    def zero_character(self):
        return Character((0,) * len(self.invariant_factors), self)


@dataclass(frozen=True)
class Character:
    """An element of the character group, one residue per invariant factor."""

    components: tuple
    group: FiniteAbelianGroup

    def __post_init__(self):
        if not self.group.is_finite:
            raise ZlinError("characters require a finite group")
        factors = self.group.invariant_factors
        comps = tuple(int(c) for c in self.components)
        if len(comps) != len(factors):
            raise ZlinError("component count does not match invariant factors")
        comps = tuple(c % f for c, f in zip(comps, factors))
        object.__setattr__(self, "components", comps)

    def __add__(self, other):
        self._check(other)
        return Character(tuple(a + b for a, b in zip(self.components, other.components)),
                         self.group)

    def __sub__(self, other):
        self._check(other)
        return Character(tuple(a - b for a, b in zip(self.components, other.components)),
                         self.group)

    def __neg__(self):
        return Character(tuple(-a for a in self.components), self.group)

    def _check(self, other):
        if self.group != other.group:
            raise ZlinError("characters belong to different groups")

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
    """A superlattice modulo a finite-index sublattice.

    Bases are given by columns (rational entries allowed); the superlattice
    columns are kept in ``superlattice_basis``.  Provides the quotient
    group, a complete duplicate-free transversal of coset representatives,
    the character of any superlattice vector and its inverse,
    ``representative``.  Two empty bases give the trivial quotient of rank 0.
    """

    def __init__(self, superlattice_basis, sublattice_basis):
        sup = [[Fraction(x) for x in col] for col in _as_columns(superlattice_basis)]
        sub = [[Fraction(x) for x in col] for col in _as_columns(sublattice_basis)]
        n = len(sup)
        if len(sub) != n or any(len(col) != n for col in sup + sub):
            raise ZlinError("quotient needs two square bases of the same rank")
        sup_rows = [[sup[j][i] for j in range(n)] for i in range(n)]
        sup_inv = rational_inverse(sup_rows)
        # sublattice in superlattice coordinates; must be integral
        t_cols = []
        for col in sub:
            coords = [sum(sup_inv[i][k] * col[k] for k in range(n)) for i in range(n)]
            for c in coords:
                if c.denominator != 1:
                    raise ZlinError("sublattice is not contained in the superlattice")
            t_cols.append([int(c) for c in coords])
        snf = smith_normal_form(IntMatrix.from_columns(t_cols, rows=n))
        diag = snf.D.diagonal()
        if 0 in diag:
            raise ZlinError("sublattice has infinite index (torsion-free quotient direction)")
        self.superlattice_basis = [tuple(col) for col in sup]
        self.group = FiniteAbelianGroup(tuple(d for d in diag if d > 1))
        # adapted superlattice basis: columns of S' = S U^{-1}; the i-th one
        # generates a cyclic summand of order diag[i] in the quotient, and
        # the inverse of S' is U S^{-1}
        u = snf.U.entries
        u_inv = rational_inverse(u)
        self._adapted = [tuple(sum(sup_rows[i][k] * u_inv[k][j] for k in range(n))
                               for i in range(n)) for j in range(n)]
        self._adapted_inv = [[sum(u[i][k] * sup_inv[k][j] for k in range(n))
                              for j in range(n)] for i in range(n)]
        self._diag = diag
        self._rank = n
        self.index = prod(diag)
        self.representatives = [self.representative(chi)
                                for chi in self.group.characters()]

    def character_of(self, vec) -> Character:
        """Character of a superlattice vector in the quotient group."""
        vec = [Fraction(x) for x in vec]
        coords = [sum(self._adapted_inv[i][k] * vec[k] for k in range(self._rank))
                  for i in range(self._rank)]
        for c in coords:
            if c.denominator != 1:
                raise ZlinError("vector does not lie in the superlattice")
        comps = tuple(int(coords[i]) % self._diag[i]
                      for i in range(self._rank) if self._diag[i] > 1)
        return Character(comps, self.group)

    def representative(self, chi) -> tuple:
        """The transversal element of ``chi``, inverse to ``character_of``.

        A character of another group is a :class:`ZlinError`.
        """
        if not isinstance(chi, Character) or chi.group != self.group:
            raise ZlinError(f"{chi!r} is not a character of {self.group}")
        comps = iter(chi.components)
        coords = [next(comps) if d > 1 else 0 for d in self._diag]
        return tuple(sum(c * a[i] for c, a in zip(coords, self._adapted))
                     for i in range(self._rank))


def _as_columns(basis):
    if isinstance(basis, IntMatrix):
        return basis.columns()
    return [tuple(col) for col in basis]
