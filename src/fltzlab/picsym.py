"""Symbolic Picard-group layer.

Pic of the base is modeled as a free abelian group on formal line-bundle
symbols L1..Ln; monomials are exponent vectors.  On top of that sit the
anchor data (a homomorphism from the dual fiber lattice into Pic), the
induced torus monodromy matrix, symmetric-power expansions, and the
per-chamber labels of the ordered decomposition components for the
projective-fiber case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .zlin import IntMatrix


class PicError(ValueError):
    pass


@dataclass(frozen=True)
class PicMonomial:
    """L1^e1 ... Ln^en as the integer exponent vector (e1..en)."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents",
                           tuple(int(e) for e in self.exponents))

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
        return PicMonomial(tuple(e * int(k) for e in self.exponents))

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


_TERM = re.compile(r"^L(\d+)(?:\^(-?\d+))?$")


def parse_monomial(text: str, n: int) -> PicMonomial:
    """Inverse of :func:`format_monomial` for the canonical L1..Ln names."""
    text = text.strip()
    if text == "1":
        return PicMonomial.unit(n)
    exps = [0] * n
    for term in text.split():
        m = _TERM.match(term)
        if not m:
            raise PicError(f"bad monomial term {term!r}")
        idx = int(m.group(1)) - 1
        if not 0 <= idx < n:
            raise PicError(f"generator index out of range in {term!r}")
        exps[idx] += int(m.group(2)) if m.group(2) else 1
    return PicMonomial(tuple(exps))


def sym_expand(k: int, n: int):
    """Monomial content of the k-th symmetric power of O + L1 + ... + Ln.

    The O-summand absorbs the slack, so the result is every monomial
    L1^a1...Ln^an with ai >= 0 and sum ai <= k; there are C(n+k, n) of
    them, in lexicographic order.
    """
    if k < 0:
        raise PicError("negative symmetric power")
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(PicMonomial(tuple(prefix)))
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a)

    rec([], k)
    out.sort(key=lambda m: m.exponents)
    assert len(out) == comb(n + k, n)
    return out


# ---------------------------------------------------------------------------
# anchor data and monodromy


@dataclass(frozen=True)
class Ikari:
    """A homomorphism from the dual fiber lattice Z^n into Pic = Z^g."""

    matrix: IntMatrix

    @classmethod
    def identity(cls, n):
        return cls(IntMatrix.identity(n))

    @classmethod
    def zero(cls, n, g=None):
        return cls(IntMatrix.zeros(g if g is not None else n, n))


@dataclass(frozen=True)
class MonodromyData:
    """The composite of beta-transpose followed by minus the anchor map.

    Column j is the Pic exponent vector picked up around the j-th loop of
    the base torus.
    """

    matrix: IntMatrix

    def loop_monomial(self, j) -> PicMonomial:
        return PicMonomial(self.matrix.column(j))

    def transport(self, translation) -> PicMonomial:
        """Monomial for a torus deck translation (integer vector)."""
        return PicMonomial(self.matrix @ tuple(translation))


def monodromy(beta: IntMatrix, ikari: Ikari) -> MonodromyData:
    bt = beta.transpose()
    if ikari.matrix.cols != bt.rows:
        raise PicError("anchor map and beta have incompatible shapes")
    prod = ikari.matrix @ bt
    return MonodromyData(IntMatrix([[-x for x in row] for row in prod.entries]))


# ---------------------------------------------------------------------------
# ordered-decomposition component labels on the chamber set


@dataclass(frozen=True)
class SodLabel:
    """A symbolic bundle a_k * (monomial) * Sym^power(O + L1 + ... + Ln)."""

    monomial: PicMonomial
    sym_power: int
    n: int

    @property
    def rank(self):
        return comb(self.n + self.sym_power, self.n)


def sod_label(n: int, k: int, chamber) -> SodLabel | None:
    """Label of the k-th decomposition component at a chamber; None when zero.

    A chamber at step i >= k carries the zero object.  Otherwise the
    label is an explicit monomial prefix times Sym^(k-i-1) of the rank
    n+1 bundle.  The monomial prefix for k = 2 follows the dedicated
    second-component listing, which is rotated by one position relative
    to the generic rule used for every other k.
    """
    if not 1 <= k <= n + 1:
        raise PicError("component index k out of range")
    flags, slant = chamber.flags, chamber.slant
    step = chamber.step
    if step >= k:
        return None
    s_positions = [i for i, f in enumerate(flags) if f == "S"]
    if k == 2:
        # second component: (S,L,...,L,0) -> unit, ..., (L,...,L,1) -> Ln
        if slant == 1 and not s_positions:
            mono = PicMonomial.generator(n - 1, n)
        elif len(s_positions) == 1 and slant == 0:
            m = s_positions[0]
            mono = (PicMonomial.unit(n) if m == 0
                    else PicMonomial.generator(m - 1, n))
        else:
            mono = PicMonomial.unit(n)
    else:
        mono = PicMonomial.unit(n)
        for m in s_positions:
            mono = mono * PicMonomial.generator(m, n)
    return SodLabel(monomial=mono, sym_power=k - step - 1, n=n)
