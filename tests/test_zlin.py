import random
from enum import IntEnum
from fractions import Fraction
from itertools import product
from math import lcm, prod
from types import SimpleNamespace

import pytest

from fltzlab import zlin
from fltzlab.fans import FanError
from fltzlab.skeleton import SkeletonError, character_lattice_quotient
from fltzlab.zlin import (
    Character,
    FiniteAbelianGroup,
    IntMatrix,
    LatticeQuotient,
    ZlinError,
    _int_inverse,
    check_exact,
    check_ints,
    cokernel,
    kernel_basis,
    pivot_columns,
    rational_inverse,
    rational_rank,
    smith_normal_form,
)


def zeros(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)])


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
            A = zeros(*shape)
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


def reference_smith_normal_form(A):
    """The pivot-by-pivot Smith normal form the kernel in ``zlin`` replaced,
    kept as it was: closures for each row and column operation, a full
    pivot search, and U and V built from identity matrices through the
    public constructor."""
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
                    add_row(t, i, -(d[i][t] // p))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // p))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
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
    return IntMatrix(u), IntMatrix(d), IntMatrix(v)


def shape_and_entries(m):
    return m.rows, m.cols, m.entries


class TestSmithNormalFormOracle:
    def test_transforms_match_the_reference(self):
        rng = random.Random(83)
        checked = 0
        for bound in (1, 9, 50):
            for _ in range(800):
                rows, cols = rng.randint(0, 7), rng.randint(0, 7)
                A = IntMatrix([[rng.randint(-bound, bound)
                                for _ in range(cols)] for _ in range(rows)])
                snf = smith_normal_form(A)
                expected = reference_smith_normal_form(A)
                got = (snf.U, snf.D, snf.V)
                assert ([shape_and_entries(m) for m in got]
                        == [shape_and_entries(m) for m in expected]), A
                checked += 1
        assert checked >= 2000


class TestMatrixProduct:
    def test_matches_the_triple_loop(self):
        rng = random.Random(89)
        for _ in range(600):
            r, k, c = (rng.randint(0, 5) for _ in range(3))
            a = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(r)]
            b = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(k)]
            A, B = IntMatrix(a), IntMatrix(b)
            if A.cols != B.rows:
                # a matrix with no rows has no columns either
                with pytest.raises(ZlinError, match="shape mismatch"):
                    A @ B
                continue
            product = A @ B
            assert shape_and_entries(product) == shape_and_entries(
                IntMatrix(mat_mul(a, b)))

    @pytest.mark.parametrize("left, right, shape", [
        ((0, 0), (0, 0), (0, 0)), ((3, 0), (0, 0), (3, 0)),
        ((0, 0), (0, 4), (0, 0)), ((2, 3), (3, 0), (2, 0)),
        ((2, 1), (1, 4), (2, 4))])
    def test_empty_shapes(self, left, right, shape):
        A = IntMatrix([[1] * left[1] for _ in range(left[0])])
        B = IntMatrix([[2] * right[1] for _ in range(right[0])])
        product = A @ B
        assert (product.rows, product.cols) == shape
        assert product.entries == tuple(
            map(tuple, mat_mul(A.entries, B.entries)))

    def test_products_transposes_and_identities_hold_ints(self):
        A = IntMatrix([[2, -3], [10 ** 30, 0]])
        for m in (A @ A, A.transpose(), IntMatrix.identity(3),
                  smith_normal_form(A).U):
            assert all(type(x) is int for row in m.entries for x in row)
        assert A.transpose().entries == ((2, 10 ** 30), (-3, 0))
        assert IntMatrix.identity(0).entries == ()

    def test_vector_product_matches_the_loop(self):
        rng = random.Random(97)
        for _ in range(200):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(c)]
            assert IntMatrix(a) @ vec == tuple(
                sum(row[k] * vec[k] for k in range(c)) for row in a)


class TestIntMatrix:
    @pytest.mark.parametrize("entries", [
        [[1.5, 2.7]], [[1, 2.0]], [[Fraction(3, 2)]], [[Fraction(2)]],
        [[True, 0]], [["1"]]])
    def test_non_int_entry_rejected(self, entries):
        # [[1.5, 2.7]] used to hold [[1, 2]]
        with pytest.raises(ZlinError, match="is not an int"):
            IntMatrix(entries)

    def test_int_entries_kept(self):
        m = IntMatrix(([1, -2], (3, 10 ** 30)))
        assert m.entries == ((1, -2), (3, 10 ** 30))


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
        assert cokernel(zeros(0, 3)).is_trivial
        g = cokernel(zeros(2, 0))
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
            q = LatticeQuotient([[Fraction(1, n)]])
            assert q.group.invariant_factors == (n,)
            assert sorted(q.representatives) == [(Fraction(i, n),)
                                                 for i in range(n)]

    def test_trivial(self):
        q = LatticeQuotient([[1]])
        assert q.group.is_trivial
        assert q.representatives == [(Fraction(0),)]

    def test_half_times_third(self):
        sup = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        q = LatticeQuotient(sup)
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
        # Z^n / M Z^n is M^-1 Z^n / Z^n
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 3)
            while True:
                sub = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(n)])
                if sub.det() != 0:
                    break
            sup = list(zip(*rational_inverse(sub.entries)))
            reps = LatticeQuotient(sup).representatives
            assert len(reps) == abs(sub.det())
            assert len(set(reps)) == len(reps)

    def test_representative_inverts_character_of(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 3)
            scale = [rng.randint(1, 3) for _ in range(n)]
            while True:
                m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                               for _ in range(n)])
                if m.det() != 0:
                    break
            # the superlattice spanned by diag(1 / scale) @ m^-1, which
            # contains Z^n with index |det m| times the product of scale
            sup = [[x / k for x, k in zip(col, scale)]
                   for col in zip(*rational_inverse(m.entries))]
            q = LatticeQuotient(sup)
            assert q.index == abs(m.det()) * prod(scale)
            for r in q.representatives:
                assert q.representative(q.character_of(r)) == r
            for chi in q.group.characters():
                assert q.character_of(q.representative(chi)) == chi

    def test_not_contained_rejected(self):
        with pytest.raises(ZlinError):
            LatticeQuotient([[2]])

    def test_rank_zero_is_trivial(self):
        q = LatticeQuotient([])
        assert q.index == 1
        assert q.representatives == [()]
        assert q.character_of(()).is_zero()

    def test_basis_shape_rejected(self):
        for sup in ([[1], [0, 1]], [[1, 0]], [[1, 0], [0, 1], [1, 1]]):
            with pytest.raises(ZlinError, match="square superlattice basis"):
                LatticeQuotient(sup)

    @pytest.mark.parametrize("sup", [[[0.5, 0], [0, 0.5]], [[True]]])
    def test_float_or_bool_basis_rejected(self, sup):
        # the float basis used to build (Z/2)^2, with no error
        with pytest.raises(ZlinError, match="is not an integer or a Fraction"):
            LatticeQuotient(sup)

    def test_character_of(self):
        q = LatticeQuotient([[Fraction(1, 4)]])
        chars = [q.character_of((Fraction(i, 4),)) for i in range(8)]
        assert [c.components for c in chars[:4]] == [(0,), (1,), (2,), (3,)]
        assert chars[4].components == (0,)

    @pytest.mark.parametrize("vec", [(0.75,), (True,)])
    def test_character_of_float_or_bool_rejected(self, vec):
        # (0.75,) used to give the character 3 and (True,) the character 0
        q = LatticeQuotient([[Fraction(1, 4)]])
        with pytest.raises(ZlinError, match="vector entry"):
            q.character_of(vec)

    def test_character_of_too_long_rejected(self):
        # the 7 used to be dropped, giving the character 1
        q = LatticeQuotient([[Fraction(1, 4)]])
        with pytest.raises(ZlinError, match=r"has length 2, expected 1$"):
            q.character_of((Fraction(1, 4), 7))

    def test_character_of_too_short_rejected(self):
        # used to be a raw IndexError
        q = LatticeQuotient([[Fraction(1, 4)]])
        with pytest.raises(ZlinError, match=r"has length 0, expected 1$"):
            q.character_of(())


class TestCharacters:
    def test_arithmetic(self):
        g = FiniteAbelianGroup((2, 4))
        a = Character((1, 3), g)
        b = Character((1, 2), g)
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

    @pytest.mark.parametrize("factors, free_rank", [
        ((2.9,), 0), ((Fraction(4),), 0), ((True, 2), 0), ((2,), 1.5)])
    def test_non_int_group_rejected(self, factors, free_rank):
        # (2.9,) used to give Z/2
        with pytest.raises(ZlinError, match="is not an int"):
            FiniteAbelianGroup(factors, free_rank)

    @pytest.mark.parametrize("components", [
        (1.7,), (Fraction(3, 2),), (Fraction(1),), (True,)])
    def test_non_int_character_rejected(self, components):
        # (1.7,) used to be the character 1
        with pytest.raises(ZlinError, match="is not an int"):
            Character(components, FiniteAbelianGroup((3,)))

    @pytest.mark.parametrize("components, factors, message", [
        ((True,), (3,), "character component True is not an integer"),
        ((1, True), (2, 4), "character component True is not an integer"),
        ((1, 2), (3,), "component count does not match"),
        ((), (3,), "component count does not match")])
    def test_public_constructor_still_checks(self, components, factors,
                                             message):
        # the library's own characters skip these checks through _of
        with pytest.raises(ZlinError, match=message):
            Character(components, FiniteAbelianGroup(factors))

    def test_arithmetic_reduces_components(self):
        g = FiniteAbelianGroup((2, 4))
        for a, b in product(g.characters(), repeat=2):
            for chi in (a + b, a - b, -a):
                assert chi == Character(chi.components, g)
                assert all(0 <= c < f for c, f in zip(chi.components,
                                                      g.invariant_factors))

    def test_mixed_groups_rejected(self):
        a = Character((1,), FiniteAbelianGroup((2,)))
        b = Character((1,), FiniteAbelianGroup((3,)))
        with pytest.raises(ZlinError):
            a + b

    def test_equal_groups_mix(self):
        a = Character((1,), FiniteAbelianGroup((4,)))
        b = Character((2,), FiniteAbelianGroup((4,)))
        assert a.group is not b.group
        assert (a + b).components == (3,) and (a - b).components == (3,)

    @pytest.mark.parametrize("other, name", [
        (1, "operand 1"), ((1,), r"operand \(1,\)")])
    def test_non_character_operand_rejected(self, other, name):
        # each used to be a raw AttributeError
        chi = Character((1,), FiniteAbelianGroup((4,)))
        with pytest.raises(ZlinError, match=f"^{name} is not a character of"):
            chi - other
        with pytest.raises(ZlinError, match=f"^{name} is not a character of"):
            chi + other


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
    """Entry (i, j) of a @ b by the triple loop; a b with no rows has no
    columns."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


class TestExactElimination:
    def test_rank_matches_dense_reference(self):
        rng = random.Random(11)
        for _ in range(400):
            rows = random_sparse_matrix(rng)
            assert rational_rank(rows) == dense_rank(rows)

    def test_rank_of_mapping_rows_matches_dense_reference(self):
        # the same matrices as {column: entry} rows: some zeros stored
        # explicitly, zero rows as empty dicts, int and Fraction entries
        rng = random.Random(14)
        kinds = set()
        for _ in range(400):
            rows = random_sparse_matrix(rng)
            if rng.random() < 0.5:
                rows = [[x.numerator if x.denominator == 1 else x
                         for x in row] for row in rows]
            mapping = []
            for row in rows:
                r = {j: x for j, x in enumerate(row)
                     if x or rng.random() < 0.2}
                mapping.append(dict(rng.sample(sorted(r.items()), len(r))))
                if not r:
                    kinds.add("empty")
                if 0 in r.values():
                    kinds.add("zero")
                if any(type(x) is Fraction for x in r.values()):
                    kinds.add("fraction")
            assert rational_rank(mapping) == dense_rank(rows)
        assert kinds == {"empty", "zero", "fraction"}

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

    @pytest.mark.parametrize("exact", [int, Fraction])
    def test_rank_on_unit_and_other_pivots_matches_sympy(self, exact,
                                                         monkeypatch):
        # a step on a pivot of 1 or -1 neither scales nor divides by the
        # content; entries from {-3, -1, 1, 2, 4} and integer combinations
        # of earlier rows give both kinds of pivot and dependent rows
        sympy = pytest.importorskip("sympy")
        unit = set()
        eliminate = zlin._eliminate

        def recorded(r, p, col):
            unit.add(abs(p[col]) == 1)
            return eliminate(r, p, col)

        monkeypatch.setattr(zlin, "_eliminate", recorded)
        rng = random.Random(15)
        dependent = 0
        for _ in range(300):
            ncols = rng.randint(1, 9)
            rows = []
            for _ in range(rng.randint(1, 9)):
                if rows and rng.random() < 0.3:
                    a, b = rng.choice(rows), rng.choice(rows)
                    s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                    rows.append([s * x + t * y for x, y in zip(a, b)])
                else:
                    rows.append([rng.choice((-3, -1, 1, 2, 4))
                                 if rng.random() < 0.4 else 0
                                 for _ in range(ncols)])
            if exact is Fraction:
                rows = [[Fraction(x, d) for x in row]
                        for row, d in zip(rows, (rng.randint(1, 6)
                                                 for _ in rows))]
            expected = sympy.Matrix([[sympy.Rational(x) for x in row]
                                     for row in rows]).rank()
            assert rational_rank(rows) == expected == dense_rank(rows)
            dependent += expected < sum(any(row) for row in rows)
        assert unit == {True, False}
        assert dependent >= 50, dependent

    def test_rank_leaves_the_callers_rows_unchanged(self):
        # a dict row with no stored zero reaches the echelon as the
        # caller's own object; the echelon copies it before writing it
        rng = random.Random(16)
        eliminated = 0
        for _ in range(300):
            ncols = rng.randint(1, 8)
            rows = [{j: rng.choice((-2, -1, 1, 3, Fraction(1, 2)))
                     for j in rng.sample(range(ncols), rng.randint(0, ncols))}
                    for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.5:
                rows = [{j: x for j, x in row.items() if type(x) is int}
                        for row in rows]
            dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
            given = [list(row.items()) for row in rows]
            dense_given = [list(row) for row in dense]
            rank = rational_rank(rows)
            assert rational_rank(dense) == rank
            assert [list(row.items()) for row in rows] == given
            assert dense == dense_given
            eliminated += rank < sum(map(bool, rows))
        assert eliminated >= 50, eliminated

    def test_rank_of_integer_rows(self):
        assert rational_rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
        assert rational_rank([(0, 0), (0, 0)]) == 0
        assert rational_rank([]) == 0
        assert rational_rank(IntMatrix([[3, 6], [2, 4]]).entries) == 1

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

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("exact", [int, Fraction])
    def test_pivot_columns_match_sympy_in_any_row_order(self, kind, exact):
        # the pivots of any echelon form are the greedy column basis, so
        # neither the sparsest-first sort nor a shuffle of the rows may
        # move them; rational_rank is their number
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"pivot-columns-{kind}-{exact.__name__}")
        dependent = proper = 0
        for _ in range(150):
            rows = random_sparse_matrix(rng)
            if exact is int:
                rows = [[x.numerator for x in row] for row in rows]
            ncols = len(rows[0]) if rows else 0
            expected = set(sympy.Matrix(len(rows), ncols, [
                sympy.Rational(x) for row in rows for x in row]).rref()[1])
            if kind == "sparse":
                rows = [{j: x for j, x in enumerate(row) if x}
                        for row in rows]
            shuffled = rng.sample(rows, len(rows))
            assert pivot_columns(rows) == expected
            assert pivot_columns(shuffled) == expected
            assert rational_rank(shuffled) == len(expected)
            dependent += len(expected) < sum(map(any, rows))
            proper += bool(expected) and expected != set(range(len(expected)))
        assert dependent >= 20 and proper >= 50, (dependent, proper)

    @pytest.mark.parametrize("function", [rational_rank, pivot_columns])
    @pytest.mark.parametrize("rows", [[[1, 2], [3]],
                                      [[1, 2], {0: 1, 5: 2}, (3,)],
                                      [{1: 1}, [Fraction(1, 2), 0], [], [1]]])
    def test_ragged_rows_are_named_by_both_checks(self, function, rows,
                                                  monkeypatch):
        # the whole-matrix check raises first, and the row-by-row recheck
        # then names the first ragged row itself
        raised = []

        def recorded(check):
            def run(*args):
                try:
                    return check(*args)
                except ZlinError as exc:
                    raised.append((check.__name__, str(exc)))
                    raise
            return run

        for name in ("_matrix_is_int", "_check_rows"):
            monkeypatch.setattr(zlin, name, recorded(getattr(zlin, name)))
        with pytest.raises(ZlinError,
                           match="^ragged rows in rational matrix$"):
            function(rows)
        assert raised == [(name, "ragged rows in rational matrix")
                          for name in ("_matrix_is_int", "_check_rows")]

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 1]], "entry 0.5"), ([{0: 0.5}], "entry 0.5"),
        ([[True, 1]], "entry True"), ([{0: True}], "entry True"),
        ([[1, 0.0]], "entry 0.0"), ([{0: 1, 2: 0.0}], "entry 0.0"),
        ([{0: "1"}], "entry '1'"),
        ([{"a": 1, 0: 2}], "not a nonnegative int"),
        ([{-3: 1}], "not a nonnegative int"),
        ([{True: 1}], "not a nonnegative int"),
        ([{1.0: 1}], "not a nonnegative int")])
    def test_rank_rejects_inexact_entries_and_bad_columns(self, rows,
                                                          message):
        # 0.5 used to end in a raw AttributeError, 'a' in a raw TypeError,
        # and {-3: 1} and {0: True} to have rank 1
        with pytest.raises(ZlinError, match=message):
            rational_rank(rows)

    def test_rank_of_mixed_rows_matches_dense_reference(self):
        # dict, list and tuple rows in one matrix, int and Fraction entries
        rng = random.Random(15)
        kinds = set()
        for _ in range(300):
            rows = random_sparse_matrix(rng)
            mixed = []
            for row in rows:
                kind = rng.choice((dict, list, tuple))
                kinds.add(kind)
                mixed.append({j: x for j, x in enumerate(row) if x}
                             if kind is dict else kind(row))
            before = repr(mixed)
            assert rational_rank(mixed) == dense_rank(rows)
            # dict rows with no zero enter the echelon as they are, and
            # elimination never writes to them
            assert repr(mixed) == before
        assert kinds == {dict, list, tuple}

    @pytest.mark.parametrize("bad, message", [
        ({3: [0.5, 1, 0, 0, 0, 0], 7: {-1: 1}}, "matrix entry 0.5 is not "
         "an integer or a Fraction"),
        ({3: {0: 1, "a": 2}, 7: [1, 2, True, 0, 0, 0]},
         "sparse row {0: 1, 'a': 2} has a column that is not a "
         "nonnegative int"),
        ({3: [1, 2], 7: {0: 0.5}}, "ragged rows in rational matrix"),
        ({3: {0: 1, 5: "x"}, 7: [1, 2]}, "matrix entry 'x' is not an "
         "integer or a Fraction"),
        ({7: {0: Fraction(1, 2), 1: None}}, "matrix entry None is not "
         "an integer or a Fraction")])
    def test_rank_names_the_first_bad_row(self, bad, message):
        # the checks run over the whole matrix at once, and a failure is
        # checked again row by row: the error names the first bad row or
        # entry, as a row-at-a-time check does, whatever comes later
        rng = random.Random(16)
        rows = []
        for i in range(50):
            row = [rng.choice((0, 0, 1, -1, Fraction(1, 3)))
                   for _ in range(6)]
            rows.append({j: x for j, x in enumerate(row) if x}
                        if i % 2 else row)
        for i, row in bad.items():
            rows[i] = row
        with pytest.raises(ZlinError) as caught:
            rational_rank(rows)
        assert str(caught.value) == message

    def test_rank_zero_entries_are_checked_too(self):
        # a zero entry is dropped from the row, but not before its check
        with pytest.raises(ZlinError):
            rational_rank([[False, 1]])
        with pytest.raises(ZlinError):
            rational_inverse([[1, 0.0], [0, 1]])
        rows = [[0, Fraction(0)], {0: 0, 3: Fraction(2, 3)}]
        assert rational_rank(rows) == 1


class _CountedIterations(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class _One(IntEnum):
    ONE = 1


class _Half(Fraction):
    """A ``Fraction`` subclass, which is exact too."""


class TestExactnessGate:
    @pytest.mark.parametrize("gate", [check_ints, check_exact])
    def test_all_int_sequence_takes_one_pass(self, gate):
        values = _CountedIterations([3, -1, 0, 10 ** 30])
        assert gate(values, ZlinError, "entry") is None
        assert values.iterations == 1

    def test_exact_values_take_one_pass(self):
        values = _CountedIterations([1, Fraction(1, 2), _Half(1, 2)])
        check_exact(values, ZlinError, "entry")
        assert values.iterations == 1

    @pytest.mark.parametrize("gate", [check_ints, check_exact])
    def test_a_one_shot_iterator_is_checked(self, gate):
        with pytest.raises(ZlinError, match="entry 0.5"):
            gate(iter([1, 0.5]), ZlinError, "entry")

    @pytest.mark.parametrize("gate,values,message", [
        (check_ints, (1, 2.5, True), "entry 2.5 is not an integer"),
        (check_ints, (1, _One.ONE, "1"), "entry <_One.ONE: 1> is not an "
         "integer"),
        (check_ints, (0, Fraction(1, 2)), r"entry Fraction\(1, 2\) is not "
         "an integer"),
        (check_exact, (Fraction(1, 2), True, 0.5),
         "entry True is not an integer or a Fraction"),
        (check_exact, (1, 0.5, "1"),
         "entry 0.5 is not an integer or a Fraction"),
    ])
    def test_first_bad_value_is_named(self, gate, values, message):
        with pytest.raises(ZlinError, match=f"^{message}$"):
            gate(values, ZlinError, "entry")

    @pytest.mark.parametrize("gate", [check_ints, check_exact])
    def test_the_callers_error_is_raised(self, gate):
        with pytest.raises(FanError) as caught:
            gate((1, 1.0), FanError, "coordinate")
        assert type(caught.value) is FanError
        assert not isinstance(caught.value, ZlinError)

    @pytest.mark.parametrize("gate", [check_ints, check_exact])
    @pytest.mark.parametrize("values", [(), [], {}.values()])
    def test_empty_sequence_passes(self, gate, values):
        assert gate(values, ZlinError, "entry") is None


# ---------------------------------------------------------------------------
# the integer lattice quotient against the Fraction algorithm it replaced


def reference_inverse(rows):
    """Gauss-Jordan over Fractions, pivoting on the first nonzero entry."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ZlinError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def reference_lattice_quotient(superlattice_basis):
    """``LatticeQuotient`` as the Fraction algorithm computed it.

    Every quantity is a ``Fraction``: the inverse of the superlattice
    basis (whose columns are the coordinates of Z^n), U^-1, the adapted
    basis and its inverse, and the representative of each character.
    Returns the public fields and ``character_of``.
    """
    cols = [tuple(col) for col in superlattice_basis]
    for col in cols:
        check_exact(col, ZlinError, "basis entry")
    sup = [[Fraction(x) for x in col] for col in cols]
    n = len(sup)
    if any(len(col) != n for col in sup):
        raise ZlinError("quotient needs a square superlattice basis")
    sup_rows = [[sup[j][i] for j in range(n)] for i in range(n)]
    sup_inv = reference_inverse(sup_rows)
    if any(c.denominator != 1 for row in sup_inv for c in row):
        raise ZlinError("sublattice is not contained in the superlattice")
    snf = smith_normal_form(IntMatrix([[int(c) for c in row]
                                       for row in sup_inv]))
    diag = snf.D.diagonal()
    group = FiniteAbelianGroup(tuple(d for d in diag if d > 1))
    u = snf.U.entries
    u_inv = reference_inverse(u)
    adapted = [tuple(sum(sup_rows[i][k] * u_inv[k][j] for k in range(n))
                     for i in range(n)) for j in range(n)]
    adapted_inv = [[sum(u[i][k] * sup_inv[k][j] for k in range(n))
                    for j in range(n)] for i in range(n)]
    representatives = []
    for chi in group.characters():
        comps = iter(chi.components)
        coords = [next(comps) if d > 1 else 0 for d in diag]
        representatives.append(tuple(
            sum(c * a[i] for c, a in zip(coords, adapted))
            for i in range(n)))

    def character_of(vec):
        vec = tuple(vec)
        check_exact(vec, ZlinError, "vector entry")
        if len(vec) != n:
            raise ZlinError(f"vector {vec!r} has length {len(vec)}, "
                            f"expected {n}")
        vec = [Fraction(x) for x in vec]
        coords = [sum(adapted_inv[i][k] * vec[k] for k in range(n))
                  for i in range(n)]
        if any(c.denominator != 1 for c in coords):
            raise ZlinError("vector does not lie in the superlattice")
        return Character(tuple(int(coords[i]) % diag[i]
                               for i in range(n) if diag[i] > 1), group)

    return SimpleNamespace(
        superlattice_basis=[tuple(col) for col in sup], group=group,
        index=prod(diag), representatives=representatives,
        denominator=lcm(*(x.denominator for col in sup for x in col)),
        character_of=character_of)


def reference_character_lattice_quotient(beta):
    """``skeleton.character_lattice_quotient`` on the reference quotient."""
    snf = smith_normal_form(beta.transpose())
    diag = snf.D.diagonal()
    n = beta.rows
    if any(d == 0 for d in diag) or len(diag) < n:
        raise SkeletonError("beta is not injective after dualizing; "
                            "cokernel of beta must be finite")
    sup = [tuple(Fraction(x, diag[i]) for x in snf.V.column(i))
           for i in range(n)]
    return reference_lattice_quotient(sup)


def outcome(call, *args):
    """The value of ``call(*args)``, or the type and message it raised."""
    try:
        return call(*args)
    except (ZlinError, SkeletonError) as exc:
        return type(exc), str(exc)


def random_exact(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))


def random_quotient_input(rng):
    """Seeded superlattice columns: about a third raise.

    Half the time the superlattice is M^-1 Z^n for an integer matrix M,
    so it contains Z^n with index |det M| (a singular M stays as it is
    and raises); otherwise its entries are random, and it seldom
    contains Z^n.
    """
    n = rng.randint(0, 3)
    if rng.random() < 0.5:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return [list(col) for col in zip(*reference_inverse(m))]
        except ZlinError:
            return m
    return [[random_exact(rng) if rng.random() < 0.6 else rng.randint(-2, 2)
             for _ in range(n)] for _ in range(n)]


def random_vectors(rng, sup):
    """Three superlattice vectors and one rational vector of sup's rank."""
    n = len(sup)
    vecs = [tuple(sum(c * col[i] for c, col in zip(coeffs, sup))
                  for i in range(n))
            for coeffs in ([rng.randint(-5, 5) for _ in range(n)]
                           for _ in range(3))]
    vecs.append(tuple(random_exact(rng) for _ in range(n)))
    return vecs


def assert_same_quotient(got, ref, vectors):
    """Every public field and ``character_of`` agree, with the types of
    their entries (compared through ``repr``)."""
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert not isinstance(got, tuple), got
    for name in ("superlattice_basis", "representatives", "denominator"):
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    assert got.group == ref.group and got.index == ref.index
    for vec in vectors:
        assert outcome(got.character_of, vec) == outcome(ref.character_of,
                                                         vec), vec


class TestIntegerQuotientOracle:
    def test_lattice_quotient_matches_the_fraction_algorithm(self):
        rng = random.Random(23)
        raised = 0
        for _ in range(3000):
            sup = random_quotient_input(rng)
            ref = outcome(reference_lattice_quotient, sup)
            got = outcome(LatticeQuotient, sup)
            raised += isinstance(ref, tuple)
            assert_same_quotient(got, ref, random_vectors(rng, sup))
        assert 500 <= raised <= 2000, raised

    def test_character_lattice_quotient_matches(self):
        rng = random.Random(29)
        built = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            beta = IntMatrix([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(n)])
            ref = outcome(reference_character_lattice_quotient, beta)
            got = outcome(character_lattice_quotient, beta)
            built += not isinstance(ref, tuple)
            sup = [] if isinstance(ref, tuple) else ref.superlattice_basis
            assert_same_quotient(got, ref, random_vectors(rng, sup))
        assert built >= 200, built

    def test_int_inverse_is_in_lowest_terms(self):
        # (B, q) with A^-1 = B / q and q least: the rows of [A | I] enter
        # the echelon as they are, and start primitive
        rng = random.Random(31)
        for _ in range(500):
            n = rng.randint(0, 5)
            rows = [[random_exact(rng) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)]
            ref = outcome(reference_inverse, rows)
            if isinstance(ref, tuple):
                continue
            q = lcm(*(x.denominator for row in ref for x in row))
            assert _int_inverse(rows) == (tuple(
                tuple(int(x * q) for x in row) for row in ref), q)

    def test_rational_inverse_matches_gauss_jordan(self):
        rng = random.Random(31)
        singular = 0
        for _ in range(500):
            n = rng.randint(0, 5)
            rows = [[random_exact(rng) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)]
            ref = outcome(reference_inverse, rows)
            got = outcome(rational_inverse, rows)
            singular += isinstance(ref, tuple)
            assert repr(got) == repr(ref)
        assert 20 <= singular <= 400, singular
