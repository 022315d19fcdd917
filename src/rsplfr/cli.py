"""Command line front end.

Exit codes: 0 success, 1 domain failure (an invalid array, a failed
run, a violated audit, a broken bound invariant), 2 usage or
configuration errors.  The RSPLFR_SEED environment variable overrides
the seed found in any config file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, audit as audit_mod, pda as pda_mod, sim
from .protocol import (ConfigError, ProtocolError, load_config, read_config,
                       read_text, with_seed)
from .rscode import DecodingFailure


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _seeded(params):
    """params with the RSPLFR_SEED override applied, when it is set."""
    raw = os.environ.get("RSPLFR_SEED")
    if not raw:
        return params
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"RSPLFR_SEED must be an integer, got {raw!r}") from None
    return with_seed(params, seed)


def _num(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.10g}"


@contextlib.contextmanager
def _open_out(path):
    """The output file opened for writing, or None for no (or an empty) path.

    Commands open it before their run, so an unwritable path exits 2
    before any work is done or any result is printed.  The file is cut
    to what was written only when the run succeeds; if the run raises,
    a file that did not exist is removed again and an existing one is
    left as it was.
    """
    if not path:
        yield None
        return
    existed = os.path.exists(path)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8") as out:
        try:
            yield out
        except BaseException:
            if not existed:
                os.remove(path)
            raise
        out.truncate()


# ---------- subcommands ----------


def _cmd_pda_validate(args) -> int:
    text = read_text(args.file, "pda file")
    try:
        arr = pda_mod.parse(text)
    except pda_mod.PdaError as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid: K={arr.K} F={arr.F} Z={arr.Z} S={arr.S}")
    return 0


def _cmd_pda_man(args) -> int:
    try:
        arr = pda_mod.man_pda(args.k, args.t, seed=args.seed)
    except (ValueError, pda_mod.PdaError) as exc:
        return _fail(str(exc), 2)
    text = pda_mod.serialize(arr)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {arr.F}x{arr.K} array to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_simulate(args) -> int:
    if args.trace and args.sweep:
        return _fail("--trace applies to single runs, not --sweep", 2)
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}", 2)
    sc = sim.Scenario.from_json(read_config(args.config),
                                base_dir=Path(args.config).parent)
    sc.params = _seeded(sc.params)
    if args.sweep:
        result = sim.sweep(sc, jobs=args.jobs)
        m = result.measured
        print(f"measured: M={m.M} T={m.T} R={m.R} "
              f"subpacketization={m.subpacketization}")
        if result.ok:
            print(f"all {result.configurations} configurations passed "
                  f"({result.elapsed:.2f}s)")
            return 0
        print(f"{result.failure_count} failures across "
              f"{result.configurations} configurations")
        for w in result.failures[:5]:
            print(f"  {w}")
        return 1
    with _open_out(args.trace) as trace_file:
        result = sim.run(sc, collect_trace=bool(args.trace))
        if trace_file is not None:
            trace_file.write(json.dumps(result.trace, indent=1))
    m = result.measured
    ok_users = sum(result.per_user)
    print(f"users decoded: {ok_users}/{len(result.per_user)}")
    print(f"measured: M={m.M} T={m.T} R={m.R} "
          f"subpacketization={m.subpacketization}")
    if result.ok:
        print("ok")
        return 0
    for w in result.failures[:5]:
        print(f"  {w}")
    return 1


def _cmd_curve(args) -> int:
    params = _seeded(load_config(args.config)[0])
    grid = analysis.default_grid(params, args.grid)
    report = analysis.gap_report(params, grid)
    text = report.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(report.rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_bounds(args) -> int:
    if args.m is not None and not math.isfinite(args.m):
        raise ConfigError(f"--m must be a finite number, got {args.m}")
    params = _seeded(load_config(args.config)[0])
    if args.m is not None:
        points = [Fraction(str(args.m))]
    else:
        points = analysis.default_grid(params, args.grid)
    # every point is range-checked here, before anything is printed; the
    # achievable curve spans the same [1, N]
    r_lbs = [analysis.load_lower_bound(M, params) for M in points]
    t_lb = analysis.storage_lower_bound(params)
    print(f"storage lower bound: T >= {t_lb} = {_num(t_lb)}")
    curve = analysis.man_curve(params)
    for M, r_lb in zip(points, r_lbs):
        print(f"M={_num(M)} R_lb={_num(r_lb)} "
              f"T_ach={_num(curve.T(M))} R_ach={_num(curve.R(M))}")
    return 0


def _cmd_audit(args) -> int:
    params, arr = load_config(args.config)
    params = _seeded(params)
    if arr is None:
        raise ConfigError('audit needs a "pda" in the config')
    mutations = tuple(args.mutate or ())
    with _open_out(args.out) as out:
        reports = audit_mod.run_audits(params, arr, mutations,
                                       robustness=not args.skip_robustness)
        for report in reports:
            print(report.line())
        if out is not None:
            payload = [{"constraint": r.constraint, "satisfied": r.satisfied,
                        "mi_bits": r.mi_bits, "outcomes": r.outcomes,
                        "tables": r.tables, "details": list(r.details),
                        "witness": r.witness} for r in reports]
            out.write(json.dumps(payload, indent=1))
    return 0 if all(r.satisfied for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsplfr",
        description="robust, secure, private scalar linear function retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    pda_p = sub.add_parser("pda", help="placement delivery array tools")
    pda_sub = pda_p.add_subparsers(dest="pda_command", required=True)
    val = pda_sub.add_parser("validate", help="check a whitespace grid file")
    val.add_argument("file")
    man = pda_sub.add_parser("man", help="generate a caching-gain array")
    man.add_argument("--k", type=int, required=True, help="number of users")
    man.add_argument("--t", type=int, required=True, help="caching gain 0..k")
    man.add_argument("--seed", type=int, default=None,
                     help="shuffle symbol labels deterministically")
    man.add_argument("--out", help="write the grid here instead of stdout")

    simp = sub.add_parser("simulate", help="run or sweep a delivery scenario")
    simp.add_argument("--config", required=True, help="scenario JSON")
    simp.add_argument("--sweep", action="store_true",
                      help="replay every selected configuration")
    simp.add_argument("--trace", help="write a full transcript JSON (single run)")
    simp.add_argument("--jobs", type=int, default=1,
                      help="worker processes for --sweep")

    curvep = sub.add_parser("curve", help="memory/storage/load tradeoff CSV")
    curvep.add_argument("--config", required=True, help="system parameter JSON")
    curvep.add_argument("--grid", type=int, default=200,
                        help="number of memory points")
    curvep.add_argument("--out", help="write CSV here instead of stdout")

    boundsp = sub.add_parser("bounds", help="converse bounds at given memory")
    boundsp.add_argument("--config", required=True, help="system parameter JSON")
    group = boundsp.add_mutually_exclusive_group()
    group.add_argument("--m", type=float, default=None, help="one memory point")
    group.add_argument("--grid", type=int, default=11,
                       help="number of memory points")

    auditp = sub.add_parser("audit", help="exact leakage and recovery audits")
    auditp.add_argument("--config", required=True,
                        help="system parameter JSON with a pda")
    auditp.add_argument("--mutate", action="append",
                        choices=list(audit_mod.MUTATIONS),
                        help="disable one defense; repeatable")
    auditp.add_argument("--skip-robustness", action="store_true",
                        help="only run the three leakage audits")
    auditp.add_argument("--out", help="write a JSON report here")
    return parser


_COMMANDS = {
    ("pda", "validate"): _cmd_pda_validate,
    ("pda", "man"): _cmd_pda_man,
    ("simulate", None): _cmd_simulate,
    ("curve", None): _cmd_curve,
    ("bounds", None): _cmd_bounds,
    ("audit", None): _cmd_audit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[(args.command, getattr(args, "pda_command", None))]
    try:
        return handler(args)
    except (ConfigError, sim.ScenarioError, audit_mod.InfeasibleAuditError,
            OSError) as exc:
        return _fail(str(exc), 2)
    except analysis.AnalysisInvariantError as exc:
        return _fail(str(exc), 1)
    except analysis.AnalysisError as exc:
        return _fail(str(exc), 2)
    except (DecodingFailure, ProtocolError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
