"""Caches live on library objects, not on module-level functions.

Every benchmark check rebuilds its fans, cones, monoids and quotients,
so a fact kept on one of those objects is computed again in each check
and a warm pass still does the library's work.  A function decorated
with ``functools.lru_cache`` or ``cache`` would instead carry its
results from one check to the next.  The one such function allowed is
``cohside._pattern_cohomology``, the Cech cohomology of one section
pattern, a pure function of (n, missing set).
"""

import ast
from pathlib import Path

import fltzlab

PACKAGE_DIR = Path(fltzlab.__path__[0])

ALLOWED = {"cohside._pattern_cohomology"}


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def cached_functions(tree, module):
    """Qualified names of the functions in ``tree`` that a
    ``lru_cache`` or ``cache`` decorator wraps, at any depth."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if (not isinstance(child, ast.ClassDef) and any(
                        _decorator_name(d) in ("lru_cache", "cache")
                        for d in child.decorator_list)):
                    out.append(name)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def test_only_the_pattern_cohomology_is_cached():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += cached_functions(tree, path.stem)
    assert set(found) <= ALLOWED, sorted(set(found) - ALLOWED)


def test_every_decorator_form_is_found():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def a(): pass

@functools.lru_cache
def b(): pass

@cache
def c(): pass

class K:
    @functools.cache
    def d(self): pass

    def e(self):
        @lru_cache
        def f(): pass

@staticmethod
def g(): pass
"""
    assert cached_functions(ast.parse(source), "m") == [
        "m.a", "m.b", "m.c", "m.K.d", "m.K.e.f"]
