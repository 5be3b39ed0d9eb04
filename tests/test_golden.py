"""Byte-for-byte snapshots of CLI outputs and of the demo scripts.

The fan-info, skeleton and dual-cone files under ``tests/golden/`` were
written by the Fraction double description that preceded the integer
one; the ``hom --side con`` and ``verify --what ccc`` files were written
by the representations that stored a dense matrix on every basis
morphism, before they were stored on arrows only; ``cone_ops.json`` was
written by the cones that rebuilt every dual, intersection and negation
through the double dual and enumerated faces over all ray subsets; the
``hom --side coh --stack``, ``verify --what kappa`` and ``demo-*`` files
(exit code and stdout of each demo) were written by the graded homs
that projected every monoid element through
``LatticeQuotient.character_of``, before a graded hom became one
isotypic component; ``generator_display.json`` (the chamber ranks and
monomial decorations of every decomposition generator, n = 1..4) was
written while ``picsym`` still kept a second display rule (per-chamber
component labels, rotated for k = 2) next to
``BeilinsonGenerator.decorations``.  ``chamber_quivers.json`` (every
vertex and edge, with its label, of the twisted chamber quiver for
n = 1..5, and the vertex and edge counts up to n = 8) was written by
the per-flag ``Fraction`` box test and the pairwise wall loop, before
chambers were decided by their S-flag count and walls by neighbour
steps.  ``verify-ccc-P3.txt`` later gained
the 16 P3 rep-hom records, written by the sparse bar complex when
``checks.two_sided`` reached n = 3; no other line of it changed.  Every
case here must keep producing exactly the same bytes.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from fltzlab.cli import main
from fltzlab.conside import beilinson_generators
from fltzlab.fans import (
    Cone,
    dual_cone,
    faces,
    fan_to_json,
    intersect_cones,
    standard_fan,
)
from fltzlab.picsym import PicMonomial
from fltzlab.skeleton import chamber_quiver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

FANS = {f"P{n}": fan_to_json(standard_fan("Pn", n=n)) for n in range(1, 5)}
FANS["mu3"] = json.dumps({"rank": 1, "max_cones": [[[1]]], "beta": [[3]]})
FANS["mu4"] = json.dumps({"rank": 2, "max_cones": [[[1, 0], [0, 1]]],
                          "beta": [[2, 0], [0, 2]]})

CLI_CASES = {f"{cmd}-{name}": [cmd, spec, "--json"]
             for name, spec in FANS.items()
             for cmd in ("fan-info", "skeleton")}
CLI_CASES.update({f"hom-con-P{n}-{i}-{j}": ["hom", "--side", "con", "--pn",
                                            str(n), "--from", str(i),
                                            "--to", str(j)]
                  for n in (1, 2)
                  for i in range(1, n + 2) for j in range(1, n + 2)})
CLI_CASES.update({f"verify-ccc-P{n}": ["verify", "--what", "ccc",
                                       "--n", str(n)]
                  for n in (1, 2, 3)})
CLI_CASES.update({f"hom-coh-{name}-{i}-{j}": ["hom", "--side", "coh",
                                              "--stack", FANS[name],
                                              "--from", str(i),
                                              "--to", str(j)]
                  for name, order in (("mu3", 3), ("mu4", 4))
                  for i in range(order) for j in range(order)})
CLI_CASES.update({f"verify-kappa-n{n}": ["verify", "--what", "kappa",
                                         "--n", str(n)]
                  for n in (1, 2, 3, 4)})


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def run_demo(path):
    """Exit code and stdout of one demo script run as its own process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    return f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"


def random_cones(seed=20261018, count=80):
    """Seeded generator lists in ranks 1..4, full-dimensional or not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rank = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 6))]
        out.append((rank, gens))
    return out


def strictly_convex_cones(seed=20261019, count=40):
    """Seeded generator lists in ranks 1..4 with first coordinate > 0."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rank = rng.randint(1, 4)
        gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                            for _ in range(rank - 1))
                for _ in range(rng.randint(1, 6))]
        out.append((rank, gens))
    return out


def _json_lines(records):
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def dual_cone_records():
    records = []
    for rank, gens in random_cones():
        d = dual_cone(Cone(gens, ambient_rank=rank))
        records.append({"rank": rank, "generators": [list(g) for g in gens],
                        "rays": [list(r) for r in d.rays],
                        "lines": [list(l) for l in d.lines]})
    return _json_lines(records)


def cone_ops_records():
    """Faces, negation and same-rank pairwise intersections of seeded cones.

    Faces are recorded (as full keys) for the strictly convex cones only.
    """
    cases = random_cones() + strictly_convex_cones()
    cones = [Cone(gens, ambient_rank=rank) for rank, gens in cases]
    records = []
    for (rank, gens), c in zip(cases, cones):
        neg = c.negated()
        face_keys = ([[f.key[0], [list(r) for r in f.key[1]],
                       [list(l) for l in f.key[2]]] for f in faces(c)]
                     if c.is_strictly_convex() else None)
        records.append({"rank": rank, "generators": [list(g) for g in gens],
                        "faces": face_keys,
                        "negated_rays": [list(r) for r in neg.rays],
                        "negated_lines": [list(l) for l in neg.lines]})
    for (i, a), (j, b) in combinations(enumerate(cones), 2):
        if a.ambient_rank == b.ambient_rank:
            inter = intersect_cones(a, b)
            records.append({"pair": [i, j],
                            "rays": [list(r) for r in inter.rays],
                            "lines": [list(l) for l in inter.lines]})
    return _json_lines(records)


def generator_display_records():
    """Chamber rank and decoration exponents of every generator, n = 1..4."""
    records = []
    for n in range(1, 5):
        for gen in beilinson_generators(n):
            for c, dim in gen.chamber_dims.items():
                records.append({"n": n, "k": gen.k,
                                "chamber": [c.flag_string(), c.slant],
                                "dim": dim,
                                "decoration": list(
                                    gen.decorations[c].exponents)})
    return _json_lines(records)


def chamber_quiver_records():
    """The twisted chamber quiver on the Pic generators: every vertex and
    edge with its label for n = 1..5, and the counts for n = 1..8."""
    records = []
    for n in range(1, 9):
        q = chamber_quiver(n, [PicMonomial.generator(i, n) for i in range(n)])
        records.append({"n": n, "vertices": len(q.vertices),
                        "edges": len(q.edges)})
        if n > 5:
            continue
        for i, v in enumerate(q.vertices):
            records.append({"n": n, "vertex": i,
                            "chamber": [v.chamber.flag_string(),
                                        v.chamber.slant],
                            "translate": list(v.translate),
                            "label": list(v.label.exponents)})
        for e in q.edges:
            records.append({"n": n, "edge": [e.source, e.target],
                            "label": list(e.label.exponents)})
    return _json_lines(records)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_cli(CLI_CASES[name]) == expected


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(path):
    expected = (GOLDEN / f"demo-{path.stem}.txt").read_text(encoding="utf-8")
    assert run_demo(path) == expected


def test_dual_cones_match_golden():
    expected = (GOLDEN / "dual_cones.json").read_text(encoding="utf-8")
    assert dual_cone_records() == expected


def test_cone_ops_match_golden():
    expected = (GOLDEN / "cone_ops.json").read_text(encoding="utf-8")
    assert cone_ops_records() == expected


def test_generator_display_matches_golden():
    expected = (GOLDEN / "generator_display.json").read_text(encoding="utf-8")
    assert generator_display_records() == expected


def test_chamber_quivers_match_golden():
    expected = (GOLDEN / "chamber_quivers.json").read_text(encoding="utf-8")
    assert chamber_quiver_records() == expected
