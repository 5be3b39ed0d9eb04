"""fltzlab: exact desk-scale combinatorics of the toric coherent/constructible pair.

The package computes both sides of the correspondence for toric
varieties, finite-quotient stacks, and twisted projective-space bundles,
entirely in exact arithmetic:

* :mod:`fltzlab.zlin` -- Smith normal form, cokernels, lattice quotients;
* :mod:`fltzlab.fans` -- cones, fans, stacky fans, Cech nerves;
* :mod:`fltzlab.skeleton` -- skeleton components, chambers of the
  perturbed projective skeleton, the chamber quiver;
* :mod:`fltzlab.cohside` -- lattice-point hom counting, isotypic
  components, costandard stalks, Cech cohomology on projective space;
* :mod:`fltzlab.conside` -- finite posets (among them the strata poset
  of an affine chart and its collapse), poset/quiver representations
  stored on arrows and checked on relations,
  nerve-complex derived homs, Euler forms, decomposition generators,
  cone reduction;
* :mod:`fltzlab.picsym` -- formal line-bundle monomials, anchor data,
  monodromy;
* :mod:`fltzlab.checks` -- the check registry shared by ``fltzlab verify``
  and the acceptance tests (not imported here);
* :mod:`fltzlab.cli` -- the command-line surface.
"""

from . import cohside, conside, fans, picsym, skeleton, zlin

__all__ = ["zlin", "fans", "skeleton", "cohside", "conside", "picsym"]
__version__ = "0.1.0"
