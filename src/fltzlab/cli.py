"""Command-line surface tying the pipeline together.

Subcommands: ``fan-info``, ``skeleton``, ``hom``, ``verify`` and
``quiver``.  Exit codes: 0 on success, 1 on verification failure, 2 on
input errors.  All file writes are atomic (temp file + rename), and
every randomized check takes a ``--seed`` with a fixed default.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from itertools import chain

from . import checks, cohside, conside, fans, picsym, skeleton, zlin

DEFAULT_SEED = 20240814


class InputError(ValueError):
    pass


def _read_fan(spec):
    """Load a fan from a file path or an inline JSON object string."""
    if spec.lstrip().startswith("{"):
        text, origin = spec, "<inline>"
    else:
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {spec}: {exc}") from exc
        origin = spec
    try:
        return fans.fan_from_json(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{origin}: invalid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from exc
    except fans.FanError as exc:
        raise InputError(f"{origin}: {exc}") from exc


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, path=None):
    if path:
        _write_atomic(path, text)
    else:
        print(text)


def _parse_pic(spec_text, n):
    if not spec_text:
        return [picsym.PicMonomial.unit(n) for _ in range(n)], None
    names = [s.strip() for s in spec_text.split(",")]
    if len(names) != n:
        raise InputError(f"--pic needs exactly {n} comma-separated names")
    for i, name in enumerate(names):
        if not name:
            raise InputError(f"--pic name {i + 1} of {n} is empty")
        if name in names[:i]:
            raise InputError(f"--pic name {name!r} is repeated")
    gens = [picsym.PicMonomial.generator(i, n) for i in range(n)]
    return gens, names


# ---------------------------------------------------------------------------
# subcommands


def cmd_fan_info(args):
    obj = _read_fan(args.fan)
    fan = obj.fan_hat if isinstance(obj, fans.StackyFan) else obj
    maxc = fan.maximal_cones()
    smooth = all(fans.is_smooth_cone(c) for c in maxc)
    nerve = fans.cech_nerve(fan) if maxc else None
    report = {
        "rank": fan.rank,
        "n_cones": len(fan),
        "n_rays": len(fan.rays()),
        "max_cones": len(maxc),
        "smooth": smooth,
        "nerve": nerve.count_by_dim() if nerve else {},
    }
    if isinstance(obj, fans.StackyFan):
        report["stacky_valid"] = fans.validate_stacky(obj)
    if args.json:
        _emit(json.dumps(report, sort_keys=True, default=str), args.output)
    else:
        nerve_text = ", ".join(f"{v} of dim {k}"
                               for k, v in sorted(report["nerve"].items()))
        lines = [
            f"fan of rank {report['rank']}: {report['n_cones']} cones, "
            f"{report['n_rays']} rays, {report['max_cones']} maximal",
            f"smooth: {'yes' if smooth else 'no'}",
            f"nerve: {nerve_text or 'empty'}",
        ]
        if "stacky_valid" in report:
            lines.append(f"stacky data valid: "
                         f"{'yes' if report['stacky_valid'] else 'no'}")
        _emit("\n".join(lines), args.output)
    return 0


def cmd_skeleton(args):
    obj = _read_fan(args.fan)
    comps = skeleton.fltz_components(obj)
    if args.svg is not None:
        fan = obj.fan if isinstance(obj, fans.StackyFan) else obj
        p2 = fans.standard_fan("Pn", n=2) if fan.rank == 2 else None
        if p2 is not None and fan == p2:
            drawing = skeleton.emit_svg(skeleton.chamber_quiver(2))
        else:
            drawing = skeleton.emit_svg(comps)
        _emit(drawing, args.svg)
        return 0
    data = {
        "rank": comps[0].cone.ambient_rank if comps else 0,
        "components": [
            {
                "fiber_cone": [list(g) for g in c.cone.rays],
                "character": [str(x) for x in c.character],
                "base_dim": c.base_dim,
            }
            for c in comps
        ],
    }
    _emit(json.dumps(data, sort_keys=True), args.json_out)
    return 0


def cmd_hom(args):
    bound = args.bound
    if bound < 0:
        raise InputError("--bound must be nonnegative")
    if args.side == "coh":
        if args.stack:
            obj = _read_fan(args.stack)
            if not isinstance(obj, fans.StackyFan):
                obj = fans.StackyFan.nonstacky(obj)
            G = cohside.gamma_category(obj)
            chars = G.group.characters()
            if not all(0 <= i < len(chars) for i in (args.src, args.dst)):
                raise InputError("character index out of range")
            dims = cohside.hom_graded(G, chars[args.src], chars[args.dst],
                                      bound)
            _emit(_dims_table(f"hom({args.src} -> {args.dst})", dims),
                  args.output)
        else:
            n = args.n
            if n is None:
                raise InputError("--side coh needs --pn N or --stack FILE")
            coh = cohside.pn_line_bundle_cohomology(n, args.dst - args.src)
            _emit(f"hom(O({args.src}), O({args.dst})) on P{n}: "
                  f"dim = {coh[0]} (H = {list(coh)})", args.output)
    else:
        n = args.n
        if n is None:
            raise InputError("--side con needs --pn N")
        if not (1 <= args.src <= n + 1 and 1 <= args.dst <= n + 1):
            raise InputError("generator indices must lie in 1..n+1")
        cat = conside.ChamberCategory(n)
        M = conside.beilinson_rep(n, args.src, cat)
        N = conside.beilinson_rep(n, args.dst, cat)
        ext = conside.rep_hom(M, N)
        _emit(f"hom(gen {args.src}, gen {args.dst}) on the P{n} chamber "
              f"category: dim = {ext[0]} (Ext = {ext})", args.output)
    return 0


def _dims_table(title, dims):
    lines = [title, "degree  dim"]
    for d, v in enumerate(dims.dims):
        lines.append(f"{d:6d}  {v}")
    return "\n".join(lines)


def cmd_quiver(args):
    n = args.n
    if n < 1:
        raise InputError("--n must be at least 1")
    pic, names = _parse_pic(None if args.untwisted else args.pic, n)
    q = skeleton.chamber_quiver(n, pic)
    dot = conside.quiver_to_dot(q, names)
    _emit(dot, args.dot)
    return 0


# ---------------------------------------------------------------------------
# verification suites

VERIFY_SUITES = {
    "ccc": lambda args: chain(checks.pn_cohomology(args.n),
                              checks.two_sided(args.n)),
    "kappa": lambda args: chain(checks.kappa_cyclic(args.n),
                                checks.kappa_coordinate()),
    "chambers": lambda args: chain(checks.chambers(args.n),
                                   checks.strata(args.n)),
    "monodromy": lambda args: checks.monodromy(args.n),
    "generation": lambda args: checks.generation(args.n,
                                                 random.Random(args.seed)),
}


def cmd_verify(args):
    if args.n < 1:
        raise InputError("--n must be at least 1")
    ok = True
    for check in VERIFY_SUITES[args.what](args):
        line = f"[{'PASS' if check.ok else 'FAIL'}] {check.name}"
        if check.detail and not check.ok:
            line += f": {check.detail}"
        print(line)
        ok &= check.ok
    print("all checks passed" if ok else "verification FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fltzlab",
        description="desk-scale toric skeleton and lattice-hom computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan-info", help="report cones, smoothness, nerve")
    p.add_argument("fan", help="path to a fan JSON file")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fan_info)

    p = sub.add_parser("skeleton", help="skeleton components or drawing")
    p.add_argument("fan", help="path to a fan JSON file")
    p.add_argument("--svg", nargs="?", const="", metavar="OUT")
    p.add_argument("--json", dest="json_out", nargs="?", const=None,
                   metavar="OUT")
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("hom", help="graded hom dimensions")
    p.add_argument("--side", choices=("coh", "con"), required=True)
    p.add_argument("--pn", dest="n", type=int)
    p.add_argument("--stack", help="stacky fan JSON (coh side)")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--what", required=True, choices=VERIFY_SUITES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quiver", help="DOT export of the chamber quiver")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pic", help="comma-separated generator names, e.g. L,M")
    p.add_argument("--untwisted", action="store_true")
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=cmd_quiver)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, fans.FanError, skeleton.SkeletonError,
            cohside.CohError, conside.ConError, picsym.PicError,
            zlin.ZlinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
