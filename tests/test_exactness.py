"""One meaning of an exact number, decided in ``zlin`` for every layer.

An ``int`` is exactly an ``int``: a ``bool`` or another ``int`` subclass
(an ``IntEnum`` member) is not.  An exact entry is an ``int`` or a
``Fraction``.  ``zlin.check_ints`` and ``zlin.check_exact`` are the only
places that decide it element-wise; every layer calls them with its own
``*Error`` class, and a scalar ``int`` test is spelled ``type(x) is int``.
The source scan below keeps per-module copies of the gate from coming
back; the contract test feeds the same values to one entry point per
layer.
"""

import ast
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import fltzlab
from fltzlab.cohside import AffineMonoid, CohError, GradedDims
from fltzlab.conside import CatRep, ConError, FinitePoset, euler_form
from fltzlab.fans import Cone, FanError, dd_generators
from fltzlab.picsym import PicError, PicMonomial
from fltzlab.skeleton import SkeletonError, enumerate_chambers, sample_point
from fltzlab.zlin import IntMatrix, LatticeQuotient, ZlinError

PACKAGE_DIR = Path(fltzlab.__path__[0])

GATE_NAMES = {"_is_int", "_check_ints", "_reject_inexact", "_INT_TYPES",
              "_EXACT_TYPES"}
NUMBER_TYPES = {"bool", "int", "Fraction"}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _type_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def exactness_copies(tree):
    """``(line, what)`` for each copy of the exactness gate in ``tree``:
    a definition of one of its names, or an ``isinstance`` test against
    ``bool``, ``int`` or ``Fraction`` (alone or in a tuple)."""
    out = []
    for node in ast.walk(tree):
        for name in _defined_names(node):
            if name in GATE_NAMES or name.startswith("_exact_"):
                out.append((node.lineno, f"defines {name}"))
        if (isinstance(node, ast.Call) and _type_name(node.func) ==
                "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            names = sorted(NUMBER_TYPES.intersection(map(_type_name, elts)))
            if names:
                out.append((node.lineno, f"isinstance against {names}"))
    return sorted(out)


def test_only_zlin_decides_exactness():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "zlin":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, line, what)
                  for line, what in exactness_copies(tree)]
    assert not found, found


def test_every_copy_form_is_found():
    source = """
import fractions
from fractions import Fraction

def _is_int(x): pass
def _check_ints(values, what): pass
def _exact_character(chi, rank): pass
class K:
    def _reject_inexact(self, entries): pass
_EXACT_TYPES = frozenset((int, Fraction))

def f(x):
    isinstance(x, bool)
    isinstance(x, int)
    isinstance(x, Fraction)
    isinstance(x, (int, Fraction))
    isinstance(x, (str, fractions.Fraction))
    type(x) is int
    isinstance(x, (list, tuple))
    return _is_int(x)
"""
    assert exactness_copies(ast.parse(source)) == [
        (5, "defines _is_int"),
        (6, "defines _check_ints"),
        (7, "defines _exact_character"),
        (9, "defines _reject_inexact"),
        (10, "defines _EXACT_TYPES"),
        (13, "isinstance against ['bool']"),
        (14, "isinstance against ['int']"),
        (15, "isinstance against ['Fraction']"),
        (16, "isinstance against ['Fraction', 'int']"),
        (17, "isinstance against ['Fraction']"),
    ]


class _One(IntEnum):
    ONE = 1


def _cat_rep(x):
    return CatRep(FinitePoset.chain(2), {0: 1, 1: 1}, {(0, 1): [[x]]})


# public entry points of every layer: (call on a value, the layer's error,
# whether a Fraction is an exact entry there)
LAYERS = {
    "zlin.IntMatrix": (lambda x: IntMatrix([[1, x]]), ZlinError, False),
    "zlin.IntMatrix.__matmul__": (
        lambda x: IntMatrix([[1, 0]]) @ (x, 1), ZlinError, True),
    "zlin.LatticeQuotient": (
        lambda x: LatticeQuotient([(x,)]), ZlinError, True),
    "fans.Cone": (lambda x: Cone([(x, 1)]), FanError, True),
    "fans.Cone.contains": (
        lambda x: Cone([(1, 0), (0, 1)]).contains((x, 1)), FanError, True),
    "fans.dd_generators": (
        lambda x: dd_generators([(x, 1)], 2), FanError, True),
    "picsym.PicMonomial": (lambda x: PicMonomial((0, x)), PicError, False),
    "skeleton.sample_point": (
        lambda x: sample_point(enumerate_chambers(2)[0], eps=x),
        SkeletonError, True),
    "cohside.GradedDims": (
        lambda x: GradedDims(dims=(1, x), bound=1, weight=(1,)), CohError,
        False),
    "cohside.AffineMonoid.contains": (
        lambda x: AffineMonoid(1, [(1,)]).contains((x,)), CohError, True),
    "conside.CatRep": (_cat_rep, ConError, True),
    "conside.euler_form": (
        lambda x: euler_form(FinitePoset.chain(2), (1, x), (1, 0)), ConError,
        False),
}


@pytest.mark.parametrize("value", [True, 1.0, "1", _One.ONE],
                         ids=["bool", "float", "str", "IntEnum"])
@pytest.mark.parametrize("layer", list(LAYERS))
def test_every_layer_rejects_the_same_values(layer, value):
    # the IntEnum rows of fans, cohside and conside passed before those
    # layers used the gate; the double description, the lattice basis
    # and the Euler form took every row (1.0 and '1' as the Fraction 1),
    # and a matrix times a vector took all but '1' (a raw TypeError)
    call, error, _ = LAYERS[layer]
    with pytest.raises(error, match=f"{value!r} is not an integer"):
        call(value)


@pytest.mark.parametrize("layer", list(LAYERS))
def test_every_layer_takes_exact_entries_where_allowed(layer):
    # 1/3 rather than 1/2, which lies outside epsilon's range (0, 1/2)
    call, error, exact = LAYERS[layer]
    if exact:
        call(Fraction(1, 3))
    else:
        with pytest.raises(error, match="is not an integer"):
            call(Fraction(1, 3))
