import random
from fractions import Fraction

import pytest

from fltzlab.zlin import (
    FiniteAbelianGroup,
    IntMatrix,
    LatticeQuotient,
    ZlinError,
    cokernel,
    kernel_basis,
    rational_inverse,
    rational_rank,
    smith_normal_form,
)


def snf_is_valid(A, snf):
    assert (snf.U @ A) @ snf.V == snf.D
    assert snf.U.is_unimodular()
    assert snf.V.is_unimodular()
    assert snf.D.is_diagonal()
    diag = [d for d in snf.D.diagonal() if d != 0]
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


class TestSmithNormalForm:
    def test_identity(self):
        A = IntMatrix.identity(2)
        snf = smith_normal_form(A)
        assert snf.D == A
        assert snf.U == A
        assert snf.V == A

    def test_one_by_one(self):
        for n in (-7, 0, 1, 12):
            snf = smith_normal_form(IntMatrix([[n]]))
            assert snf.D == IntMatrix([[abs(n)]])

    def test_worked_example(self):
        # oracle: direct multiplication of the returned transforms
        A = IntMatrix([[2, 4], [6, 8]])
        snf = smith_normal_form(A)
        snf_is_valid(A, snf)
        assert snf.D.diagonal() == (2, 4)

    def test_empty_and_rectangular(self):
        for shape in ((0, 0), (0, 3), (2, 0), (2, 4), (4, 2)):
            A = IntMatrix.zeros(*shape)
            snf_is_valid(A, smith_normal_form(A))
        A = IntMatrix([[3, 1, 4], [1, 5, 9]])
        snf_is_valid(A, smith_normal_form(A))

    def test_random_matrices(self):
        rng = random.Random(7)
        for _ in range(80):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                           for _ in range(rows)])
            snf_is_valid(A, smith_normal_form(A))

    def test_deterministic(self):
        A = IntMatrix([[4, 6, 2], [6, 0, 3], [2, 3, 9]])
        assert smith_normal_form(A) == smith_normal_form(A)


class TestCokernel:
    def test_cyclic(self):
        g = cokernel(IntMatrix([[5]]))
        assert g == FiniteAbelianGroup((5,), 0)
        assert g.order() == 5

    def test_trivial(self):
        assert cokernel(IntMatrix.identity(3)).is_trivial

    def test_free_part(self):
        g = cokernel(IntMatrix([[2, 0], [0, 0]]))
        assert g.invariant_factors == (2,)
        assert g.free_rank == 1
        assert not g.is_finite

    def test_empty_matrix(self):
        assert cokernel(IntMatrix([])).is_trivial
        assert cokernel(IntMatrix.zeros(0, 3)).is_trivial
        g = cokernel(IntMatrix.zeros(2, 0))
        assert g.free_rank == 2

    def test_order_equals_abs_det(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            A = IntMatrix([[rng.randint(-6, 6) for _ in range(n)]
                           for _ in range(n)])
            det = A.det()
            g = cokernel(A)
            if det != 0:
                assert g.is_finite and g.order() == abs(det)
            else:
                assert not g.is_finite


class TestKernel:
    def test_kernel_is_saturated(self):
        A = IntMatrix([[2, 4]])
        basis = kernel_basis(A)
        assert len(basis) == 1
        # kernel is generated by the primitive (2, -1), not (4, -2)
        v = basis[0]
        from math import gcd
        assert abs(gcd(v[0], v[1])) == 1
        assert A @ v == (0,)


class TestCharacterQuotient:
    def test_one_over_n(self):
        for n in (2, 3, 5):
            q = LatticeQuotient([[Fraction(1, n)]], [[1]])
            assert q.group.invariant_factors == (n,)
            assert sorted(q.representatives) == [(Fraction(i, n),)
                                                 for i in range(n)]

    def test_trivial(self):
        q = LatticeQuotient([[1]], [[1]])
        assert q.group.is_trivial
        assert q.representatives == [(Fraction(0),)]

    def test_half_times_third(self):
        sup = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        q = LatticeQuotient(sup, [[1, 0], [0, 1]])
        assert q.group.invariant_factors == (6,)
        assert len(q.representatives) == 6
        # brute-force coset oracle: every superlattice point in the unit
        # square is congruent to exactly one representative mod Z^2
        points = [(Fraction(a, 2), Fraction(b, 3))
                  for a in range(2) for b in range(3)]
        for p in points:
            matches = [
                r for r in q.representatives
                if all((x - y).denominator == 1 for x, y in zip(p, r))]
            assert len(matches) == 1

    def test_count_equals_determinant_index(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 3)
            while True:
                sub = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(n)])
                if sub.det() != 0:
                    break
            sup = [[Fraction(int(i == j)) for i in range(n)]
                   for j in range(n)]
            reps = LatticeQuotient(sup, sub.columns()).representatives
            assert len(reps) == abs(sub.det())
            assert len(set(reps)) == len(reps)

    def test_representative_inverts_character_of(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 3)
            sup = [[Fraction(int(i == j), rng.randint(1, 3)) for i in range(n)]
                   for j in range(n)]
            while True:
                m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                               for _ in range(n)])
                if m.det() != 0:
                    break
            # the sublattice spanned by sup @ m
            sub = [[sum(sup[k][i] * m.entries[k][j] for k in range(n))
                    for i in range(n)] for j in range(n)]
            q = LatticeQuotient(sup, sub)
            assert q.index == abs(m.det())
            for r in q.representatives:
                assert q.representative(q.character_of(r)) == r
            for chi in q.group.characters():
                assert q.character_of(q.representative(chi)) == chi

    def test_infinite_index_rejected(self):
        with pytest.raises(ZlinError):
            LatticeQuotient([[1, 0], [0, 1]], [[1, 0], [0, 0]])

    def test_not_contained_rejected(self):
        with pytest.raises(ZlinError):
            LatticeQuotient([[2]], [[1]])

    def test_rank_zero_is_trivial(self):
        q = LatticeQuotient([], [])
        assert q.index == 1
        assert q.representatives == [()]
        assert q.character_of(()).is_zero()

    def test_basis_shape_rejected(self):
        for sup, sub in [([[1, 0], [0, 1]], [[1, 0], [1]]),
                         ([[1, 0], [0, 1]], [[1, 0]]),
                         ([[1], [0, 1]], [[1, 0], [0, 1]])]:
            with pytest.raises(ZlinError, match="square bases"):
                LatticeQuotient(sup, sub)

    def test_character_of(self):
        q = LatticeQuotient([[Fraction(1, 4)]], [[1]])
        chars = [q.character_of((Fraction(i, 4),)) for i in range(8)]
        assert [c.components for c in chars[:4]] == [(0,), (1,), (2,), (3,)]
        assert chars[4].components == (0,)


class TestCharacters:
    def test_arithmetic(self):
        g = FiniteAbelianGroup((2, 4))
        a = g.character((1, 3))
        b = g.character((1, 2))
        assert (a + b).components == (0, 1)
        assert (a - b).components == (0, 1)
        assert (-a).components == (1, 1)
        assert g.zero_character().is_zero()

    def test_enumeration(self):
        g = FiniteAbelianGroup((2, 4))
        assert len(g.characters()) == 8

    def test_bad_factors(self):
        with pytest.raises(ZlinError):
            FiniteAbelianGroup((3, 2))
        with pytest.raises(ZlinError):
            FiniteAbelianGroup((1,))

    def test_mixed_groups_rejected(self):
        a = FiniteAbelianGroup((2,)).character((1,))
        b = FiniteAbelianGroup((3,)).character((1,))
        with pytest.raises(ZlinError):
            a + b


def dense_rank(rows):
    """Reference rank: dense Gauss-Jordan over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_sparse_matrix(rng, max_dim=12):
    """A sparse Fraction matrix with some zero rows and dependent rows."""
    nrows, ncols = rng.randint(0, max_dim), rng.randint(0, max_dim)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15 or not rows and kind < 0.3:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = (Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         if rng.random() < 0.3 else Fraction(0)
                         for _ in range(ncols)])
    return rows


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


class TestExactElimination:
    def test_rank_matches_dense_reference(self):
        rng = random.Random(11)
        for _ in range(400):
            rows = random_sparse_matrix(rng)
            assert rational_rank(rows) == dense_rank(rows)

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12)
        for _ in range(150):
            rows = random_sparse_matrix(rng)
            ncols = len(rows[0]) if rows else 0
            flat = [sympy.Rational(x.numerator, x.denominator)
                    for row in rows for x in row]
            expected = sympy.Matrix(len(rows), ncols, flat).rank()
            assert rational_rank(rows) == expected

    def test_rank_of_integer_rows(self):
        assert rational_rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
        assert rational_rank([(0, 0), (0, 0)]) == 0
        assert rational_rank([]) == 0
        assert IntMatrix([[3, 6], [2, 4]]).rank() == 1

    def test_inverse_is_exact(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 7)
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     if rng.random() < 0.5 else Fraction(0)
                     for _ in range(n)] for _ in range(n)]
            if dense_rank(rows) < n:
                continue
            inv = rational_inverse(rows)
            identity = [[Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)]
            assert all(isinstance(x, Fraction) for row in inv for x in row)
            assert mat_mul(rows, inv) == identity
            assert mat_mul(inv, rows) == identity
            checked += 1
        assert rational_inverse([]) == []

    def test_inverse_rejects_non_square(self):
        with pytest.raises(ZlinError):
            rational_inverse([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ZlinError):
            rational_inverse([[1, 2], [3]])

    def test_inverse_rejects_singular(self):
        with pytest.raises(ZlinError, match="singular"):
            rational_inverse([[1, 2], [2, 4]])
        with pytest.raises(ZlinError, match="singular"):
            rational_inverse([[0, 0], [0, 0]])

    def test_rank_rejects_ragged_rows(self):
        with pytest.raises(ZlinError):
            rational_rank([[1, 2], [3]])
