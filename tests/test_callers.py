"""Every library name has a caller that a user reaches.

Each top-level function and class of ``src/fltzlab`` and each method
(dunders aside) must be named somewhere in ``src/fltzlab``, ``demos/``
or ``bench/`` outside its own definition; a name that only tests reach
either gets such a caller or goes.  The scan is by identifier: a
function or class counts as named by a bare name or an attribute, a
property by an attribute, and any other method only by a call
``obj.name(...)``.  So ``product`` imported from itertools, a local
``check`` or a field read ``obj.rank`` does not stand in for a method
of that name.  ``KEPT`` lists the names that stay on purpose, each with
its reason.
"""

import ast
from pathlib import Path

import fltzlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = Path(fltzlab.__path__[0])
CALLER_DIRS = [PACKAGE_DIR, ROOT / "demos", ROOT / "bench"]

KEPT = {
    "zlin.IntMatrix.is_unimodular":
        "the SNF transform property of acceptance criterion 8",
    "zlin.FiniteAbelianGroup.is_trivial":
        "the trivial-group predicate of the group API",
    "zlin.FiniteAbelianGroup.order":
        "the group order, which the tests compare with |det|",
    "picsym.PicMonomial.is_unit":
        "the unit predicate of the Pic group API",
    "conside.FinitePoset.height":
        "the poset invariant the tests compare with chain lengths",
    "conside.FinitePoset.antichain":
        "builds the discrete posets of acceptance criterion 8",
    "cohside.AffineMonoid.elements_by_degree":
        "the public Fraction view of the monoid's points, which the "
        "benchmark's tracer binds as the cohside.enum entry point",
    "conside.FinitePoset.product":
        "builds the grid posets of acceptance criterion 8 through the "
        "product routine that power shares",
}


# uses of an identifier, weakest first; a definition counts the uses at
# least as strong as its kind: a function or class any name, a property
# an attribute, any other method a call through an attribute
NAME, ATTRIBUTE, CALL = range(3)


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in node.decorator_list)


def _definitions(tree, module):
    """(qualified name, bare name, node, how it is named) of each
    top-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, NAME
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item, ATTRIBUTE if _is_property(item) else CALL)


def _references(node):
    """``(identifier, use)`` for each name ``node`` uses: a bare name, an
    attribute read, or an attribute that is called."""
    called = {id(sub.func) for sub in ast.walk(node)
              if isinstance(sub, ast.Call)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, NAME
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, CALL if id(sub) in called else ATTRIBUTE


def _count(references, kind):
    """Uses per identifier that name a definition of this kind."""
    counts = {}
    for name, use in references:
        if use >= kind:
            counts[name] = counts.get(name, 0) + 1
    return counts


def uncalled_names(package_dir=PACKAGE_DIR, caller_dirs=CALLER_DIRS):
    """Qualified library names with no reference outside their definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in caller_dirs for path in sorted(d.glob("*.py"))}
    references = [ref for tree in trees.values() for ref in _references(tree)]
    counts = {kind: _count(references, kind)
              for kind in (NAME, ATTRIBUTE, CALL)}
    out = []
    for path in sorted(package_dir.glob("*.py")):
        for qualified, name, node, kind in _definitions(trees[path],
                                                         path.stem):
            inside = _count(_references(node), kind).get(name, 0)
            if counts[kind].get(name, 0) - inside == 0:
                out.append(qualified)
    return out


def test_every_library_name_has_a_caller():
    unexplained = [q for q in uncalled_names() if q not in KEPT]
    assert unexplained == [], (
        "only tests reach these; give each a caller or delete it")


def test_kept_names_are_still_uncalled():
    # a kept name that gains a caller, or goes, leaves the list
    assert sorted(set(KEPT) - set(uncalled_names())) == []


def test_a_bare_name_does_not_call_a_method(tmp_path):
    # a method counts as called only through a call obj.name(...); an
    # itertools import or a local of the same name used to hide it, and
    # so did a field of the same name; a property is read, not called
    package, callers = tmp_path / "package", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "lib.py").write_text(
        "class Poset:\n"
        "    def product(self):\n"
        "        return self\n"
        "    def meet(self):\n"
        "        return self\n"
        "    def height(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "def check():\n"
        "    pass\n")
    (callers / "user.py").write_text(
        "from itertools import product\n"
        "product()\n"
        "check = None\n"
        "Poset().meet()\n"
        "point.height = Poset().size\n")
    assert uncalled_names(package, [package, callers]) == [
        "lib.Poset.product", "lib.Poset.height"]
