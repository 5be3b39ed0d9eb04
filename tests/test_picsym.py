from math import comb

import pytest

from fltzlab.picsym import (
    Ikari,
    PicError,
    PicMonomial,
    format_monomial,
    monodromy,
    parse_monomial,
    sod_label,
    sym_expand,
)
from fltzlab.skeleton import Chamber, enumerate_chambers
from fltzlab.zlin import IntMatrix


class TestMonomialGroup:
    def test_inverse_cancels(self):
        L = PicMonomial.generator(0, 2)
        assert (L * L.inverse()).is_unit()

    def test_commutes(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        assert L * M == M * L

    def test_mixed(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        a = L * L * M.inverse()  # L^2 M^-1
        assert a * M == PicMonomial((2, 0))

    def test_size_mismatch(self):
        with pytest.raises(PicError):
            PicMonomial((1,)) * PicMonomial((1, 0))


class TestFormatting:
    def test_unit(self):
        assert format_monomial(PicMonomial.unit(3)) == "1"

    def test_basic(self):
        assert format_monomial(PicMonomial((2, -1))) == "L1^2 L2^-1"
        assert format_monomial(PicMonomial((1, 0))) == "L1"

    def test_names(self):
        assert format_monomial(PicMonomial((1, 1)), ["L", "M"]) == "L M"

    def test_parse_round_trip(self):
        for exps in [(0, 0), (1, 0), (2, -1), (-3, 5), (0, 7)]:
            m = PicMonomial(exps)
            assert parse_monomial(format_monomial(m), 2) == m

    def test_parse_rejects_garbage(self):
        with pytest.raises(PicError):
            parse_monomial("X^2", 2)
        with pytest.raises(PicError):
            parse_monomial("L3", 2)


class TestSymExpand:
    def test_zero_power(self):
        assert sym_expand(0, 3) == [PicMonomial.unit(3)]

    def test_two_two(self):
        got = {m.exponents for m in sym_expand(2, 2)}
        assert got == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
        assert len(got) == comb(4, 2)

    def test_one_three(self):
        got = [m.exponents for m in sym_expand(3, 1)]
        assert got == [(0,), (1,), (2,), (3,)]

    def test_cardinality(self):
        for n in range(1, 5):
            for k in range(7):
                assert len(sym_expand(k, n)) == comb(n + k, n)


class TestMonodromy:
    def test_identity_anchor(self):
        data = monodromy(IntMatrix.identity(2), Ikari.identity(2))
        assert data.matrix == IntMatrix([[-1, 0], [0, -1]])
        assert data.loop_monomial(0) == PicMonomial((-1, 0))

    def test_zero_anchor(self):
        data = monodromy(IntMatrix.identity(2), Ikari.zero(2))
        assert all(data.loop_monomial(j).is_unit() for j in range(2))

    def test_doubled_lattice(self):
        data = monodromy(IntMatrix([[2]]), Ikari(IntMatrix([[1]])))
        assert data.loop_monomial(0) == PicMonomial((-2,))

    def test_transport_is_homomorphic(self):
        data = monodromy(IntMatrix([[1, 1], [0, 1]]),
                         Ikari(IntMatrix([[1, 0], [2, -1]])))
        for v in [(1, 0), (0, 1), (2, -3)]:
            for w in [(1, 1), (-1, 0)]:
                s = tuple(a + b for a, b in zip(v, w))
                assert data.transport(v) * data.transport(w) == data.transport(s)

    def test_shape_mismatch(self):
        with pytest.raises(PicError):
            monodromy(IntMatrix([[1, 0]]), Ikari(IntMatrix([[1]])))


class TestSodLabel:
    def test_second_component_first_wall(self):
        lab = sod_label(2, 2, Chamber(("S", "L"), 0))
        assert lab.monomial.is_unit()
        assert lab.sym_power == 0
        assert lab.rank == 1

    def test_first_component(self):
        for n in (1, 2, 3):
            center = Chamber(("L",) * n, 0)
            lab = sod_label(n, 1, center)
            assert lab.monomial.is_unit() and lab.rank == 1
            for c in enumerate_chambers(n):
                if c.step > 0:
                    assert sod_label(n, 1, c) is None

    def test_third_component_slant(self):
        lab = sod_label(2, 3, Chamber(("L", "L"), 1))
        assert lab.monomial.is_unit()
        assert lab.sym_power == 1
        assert lab.rank == 3

    def test_second_component_table(self):
        # the dedicated second-component listing for n = 3
        n = 3
        rows = {
            Chamber(("S", "L", "L"), 0): (0, 0, 0),
            Chamber(("L", "S", "L"), 0): (1, 0, 0),
            Chamber(("L", "L", "S"), 0): (0, 1, 0),
            Chamber(("L", "L", "L"), 1): (0, 0, 1),
        }
        for chamber, exps in rows.items():
            lab = sod_label(n, 2, chamber)
            assert lab.monomial.exponents == exps
            assert lab.sym_power == 0

    def test_generic_component_monomials(self):
        # k >= 3 follows the wall-letter rule
        lab = sod_label(2, 3, Chamber(("S", "S"), 0))
        assert lab.monomial.exponents == (1, 1)
        assert lab.sym_power == 0
        lab = sod_label(3, 4, Chamber(("S", "L", "S"), 0))
        assert lab.monomial.exponents == (1, 0, 1)
        assert lab.sym_power == 1

    def test_zero_beyond_step(self):
        assert sod_label(2, 2, Chamber(("S", "S"), 0)) is None
        assert sod_label(2, 1, Chamber(("L", "L"), 1)) is None

    def test_rank_formula(self):
        for n in (1, 2, 3):
            for k in range(1, n + 2):
                for c in enumerate_chambers(n):
                    lab = sod_label(n, k, c)
                    if c.step >= k:
                        assert lab is None
                    else:
                        assert lab.rank == comb(n + k - c.step - 1, n)

    def test_bad_k(self):
        with pytest.raises(PicError):
            sod_label(2, 4, Chamber(("L", "L"), 0))
