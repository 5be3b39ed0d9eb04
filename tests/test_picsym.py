from fractions import Fraction
from math import comb

import pytest

from fltzlab.conside import beilinson_generators
from fltzlab.picsym import (
    Ikari,
    PicError,
    PicMonomial,
    format_monomial,
    monodromy,
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

    @pytest.mark.parametrize("exponents", [
        (1.5, -0.2), (1, 2.0), (Fraction(1, 2), 0), (True, 0), ("1", 0)])
    def test_non_int_exponent_rejected(self, exponents):
        # (1.5, -0.2) used to be truncated to (1, 0) and printed as L1
        with pytest.raises(PicError, match="is not an int"):
            PicMonomial(exponents)

    @pytest.mark.parametrize("k", [1.5, 2.0, Fraction(2), True])
    def test_non_int_power_rejected(self, k):
        # L ** 1.5 used to be L
        with pytest.raises(PicError, match="is not an int"):
            PicMonomial.generator(0, 2) ** k

    def test_int_power(self):
        assert PicMonomial((2, -1)) ** -3 == PicMonomial((-6, 3))


class TestFormatting:
    def test_unit(self):
        assert format_monomial(PicMonomial.unit(3)) == "1"

    def test_basic(self):
        assert format_monomial(PicMonomial((2, -1))) == "L1^2 L2^-1"
        assert format_monomial(PicMonomial((1, 0))) == "L1"

    def test_names(self):
        assert format_monomial(PicMonomial((1, 1)), ["L", "M"]) == "L M"


class TestMonodromy:
    def test_identity_anchor(self):
        data = monodromy(IntMatrix.identity(2), Ikari(IntMatrix.identity(2)))
        assert data.matrix == IntMatrix([[-1, 0], [0, -1]])
        assert data.transport((1, 0)) == PicMonomial((-1, 0))

    def test_zero_anchor(self):
        data = monodromy(IntMatrix.identity(2), Ikari(IntMatrix([[0, 0], [0, 0]])))
        assert all(data.transport(e).is_unit() for e in [(1, 0), (0, 1)])

    def test_doubled_lattice(self):
        data = monodromy(IntMatrix([[2]]), Ikari(IntMatrix([[1]])))
        assert data.transport((1,)) == PicMonomial((-2,))

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


def sod_label(n, k, chamber):
    """(monomial prefix, rank) of the k-th component at a chamber.

    Read off ``beilinson_generators(n)``; None where the component is
    the zero object.
    """
    gen = beilinson_generators(n)[k - 1]
    rank = gen.chamber_dims[chamber]
    return None if rank == 0 else (gen.decorations[chamber], rank)


class TestSodLabel:
    def test_first_component(self):
        for n in (1, 2, 3):
            monomial, rank = sod_label(n, 1, Chamber(("L",) * n, 0))
            assert monomial.is_unit() and rank == 1
            for c in enumerate_chambers(n):
                if c.step > 0:
                    assert sod_label(n, 1, c) is None

    def test_third_component_slant(self):
        # Sym^1 of the rank 3 bundle
        monomial, rank = sod_label(2, 3, Chamber(("L", "L"), 1))
        assert monomial.is_unit()
        assert rank == 3

    def test_generic_component_monomials(self):
        # k >= 3 follows the wall-letter rule
        monomial, rank = sod_label(2, 3, Chamber(("S", "S"), 0))
        assert monomial.exponents == (1, 1)
        assert rank == 1
        monomial, rank = sod_label(3, 4, Chamber(("S", "L", "S"), 0))
        assert monomial.exponents == (1, 0, 1)
        assert rank == comb(3 + 1, 3)

    def test_zero_beyond_step(self):
        assert sod_label(2, 2, Chamber(("S", "S"), 0)) is None
        assert sod_label(2, 1, Chamber(("L", "L"), 1)) is None

    def test_rank_formula(self):
        for n in (1, 2, 3):
            for k in range(1, n + 2):
                for c in enumerate_chambers(n):
                    label = sod_label(n, k, c)
                    if c.step >= k:
                        assert label is None
                    else:
                        assert label[1] == comb(n + k - c.step - 1, n)
