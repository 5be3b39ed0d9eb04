"""Symbolic Picard-group layer.

Pic of the base is modeled as a free abelian group on formal line-bundle
symbols L1..Ln; monomials are integer exponent vectors, rendered as
"L1^a L2^b ...".  On top of that sit the anchor data (a homomorphism
from the dual fiber lattice into Pic) and the induced torus monodromy
matrix, whose transport labels the chamber quiver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zlin import IntMatrix, check_ints


class PicError(ValueError):
    pass


@dataclass(frozen=True)
class PicMonomial:
    """L1^e1 ... Ln^en as the integer exponent vector (e1..en)."""

    exponents: tuple

    def __post_init__(self):
        exponents = tuple(self.exponents)
        check_ints(exponents, PicError, "exponent")
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def unit(cls, n):
        return cls((0,) * n)

    @classmethod
    def generator(cls, i, n):
        """The i-th generator (0-based) among n."""
        return cls(tuple(int(j == i) for j in range(n)))

    @property
    def n_generators(self):
        return len(self.exponents)

    def is_unit(self):
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other):
        if self.n_generators != other.n_generators:
            raise PicError("monomials over different generator counts")
        return PicMonomial(tuple(a + b for a, b in
                                 zip(self.exponents, other.exponents)))

    def inverse(self):
        return PicMonomial(tuple(-e for e in self.exponents))

    def __pow__(self, k):
        if type(k) is not int:
            raise PicError(f"power {k!r} is not an int")
        return PicMonomial(tuple(e * k for e in self.exponents))

    def __str__(self):
        return format_monomial(self)

    def __repr__(self):
        return f"PicMonomial({self.exponents})"


def format_monomial(m: PicMonomial, names=None) -> str:
    """Render as "L1^a L2^b ..." with "1" for the unit."""
    if names is None:
        names = [f"L{i + 1}" for i in range(m.n_generators)]
    parts = []
    for name, e in zip(names, m.exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# anchor data and monodromy


@dataclass(frozen=True)
class Ikari:
    """A homomorphism from the dual fiber lattice Z^n into Pic = Z^g."""

    matrix: IntMatrix


@dataclass(frozen=True)
class MonodromyData:
    """The composite of beta-transpose followed by minus the anchor map.

    Column j is the Pic exponent vector picked up around the j-th loop of
    the base torus.
    """

    matrix: IntMatrix

    def transport(self, translation) -> PicMonomial:
        """Monomial for a torus deck translation (integer vector)."""
        return PicMonomial(self.matrix @ tuple(translation))


def monodromy(beta: IntMatrix, ikari: Ikari) -> MonodromyData:
    bt = beta.transpose()
    if ikari.matrix.cols != bt.rows:
        raise PicError("anchor map and beta have incompatible shapes")
    prod = ikari.matrix @ bt
    return MonodromyData(IntMatrix([[-x for x in row] for row in prod.entries]))
