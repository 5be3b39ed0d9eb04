"""The module layering: importing a module loads no module above it.

Layers, lowest first: zlin < fans, picsym < skeleton < cohside, conside
< checks < cli.  Modules on one layer do not import each other.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import fltzlab

LAYERS = {"zlin": 0, "fans": 1, "picsym": 1, "skeleton": 2, "cohside": 3,
          "conside": 3, "checks": 4, "cli": 5}

PACKAGE_DIR = Path(fltzlab.__path__[0])

# the package stub skips fltzlab/__init__.py, which imports every module
PROBE = """
import importlib, importlib.util, sys
sys.path.insert(0, {src!r})
sys.modules["fltzlab"] = importlib.util.module_from_spec(
    importlib.util.find_spec("fltzlab"))
importlib.import_module("fltzlab.{name}")
print(" ".join(m.split(".", 1)[1] for m in sys.modules
               if m.startswith("fltzlab.")))
"""


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", list(LAYERS))
def test_import_loads_only_lower_layers(name):
    code = PROBE.format(src=str(PACKAGE_DIR.parent), name=name)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    loaded = set(run.stdout.split())
    assert name in loaded
    above = {m for m in loaded - {name} if LAYERS[m] >= LAYERS[name]}
    assert not above, f"importing fltzlab.{name} loads {sorted(above)}"
