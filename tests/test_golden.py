"""Byte-for-byte snapshots of CLI outputs.

The fan-info, skeleton and dual-cone files under ``tests/golden/`` were
written by the Fraction double description that preceded the integer
one; the ``hom --side con`` and ``verify --what ccc`` files were written
by the representations that stored a dense matrix on every basis
morphism, before they were stored on arrows only.  Every case here must
keep producing exactly the same bytes.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fltzlab.cli import main
from fltzlab.fans import Cone, dual_cone, fan_to_json, standard_fan

GOLDEN = Path(__file__).parent / "golden"

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


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


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


def dual_cone_records():
    records = []
    for rank, gens in random_cones():
        d = dual_cone(Cone(gens, ambient_rank=rank))
        records.append({"rank": rank, "generators": [list(g) for g in gens],
                        "rays": [list(r) for r in d.rays],
                        "lines": [list(l) for l in d.lines]})
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_cli(CLI_CASES[name]) == expected


def test_dual_cones_match_golden():
    expected = (GOLDEN / "dual_cones.json").read_text(encoding="utf-8")
    assert dual_cone_records() == expected
