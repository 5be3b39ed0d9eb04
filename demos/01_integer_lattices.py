"""Exact integer linear algebra: Smith form, cokernels, lattice quotients.
====================================================================

Everything downstream rests on this substrate, so this walkthrough
exercises it directly: diagonalize a matrix by unimodular moves, read a
finite abelian group off a lattice map, and list coset representatives
of Z^n in a rational superlattice.
"""

from fractions import Fraction

from fltzlab.zlin import (
    IntMatrix,
    LatticeQuotient,
    cokernel,
    smith_normal_form,
)

# Smith normal form: U A V = D with unimodular U, V and a divisibility
# chain down the diagonal.
A = IntMatrix([[2, 4], [6, 8]])
snf = smith_normal_form(A)
print("A =", A.entries)
print("D =", snf.D.entries)
print("U A V == D:", (snf.U @ A) @ snf.V == snf.D)
print("det U, det V:", snf.U.det(), snf.V.det())

# The cokernel of a lattice map, as invariant factors plus a free rank.
print()
for entries in ([[5]], [[2, 0], [0, 0]], [[1, 1], [-1, 1]]):
    m = IntMatrix(entries)
    print(f"coker {entries} =", cokernel(m))

# A superlattice of Z^n, given by one basis, modulo Z^n comes with honest
# coset representatives.  The fractional line (1/4)Z over Z is the basic
# cyclic example; a product of refinements assembles to one cyclic group
# because the indices are coprime.
print()
q = LatticeQuotient([[Fraction(1, 4)]])
print("(1/4)Z over Z:", q.group, "reps:", [r[0] for r in q.representatives])

q = LatticeQuotient([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
print("(1/2)Z x (1/3)Z over Z^2:", q.group,
      f"({len(q.representatives)} representatives)")
