"""Command-line front end.

Three subcommands:

``extreme-points PROBLEM``
    Attach a channel bank (from a file or seeded at random), enumerate
    all M! corner points of the rate region, and verify each one is a
    member whose tight constraints include its nested suffix groups.

``verify SUITE PROBLEM``
    Run one verification suite: ``identities`` (randomized decomposition
    identities of the rate bound), ``noncrossing`` (tight constraints
    chain at corners and at random members), ``decomposition`` (per-slot
    mixture of the simplex functionals reproduces the weighted
    objective), or ``alphabet-bound`` (outputs larger than the source
    alphabet do not improve the objective).

``trace PROBLEM``
    Multistart coordinate descent along one or more directions; reports
    the optimized corner and distortions per direction.

Each command and suite accepts only the flags it reads; an unread flag,
two flags that choose the same thing, or a value out of range is a usage
error (exit 2) before any problem is loaded.

One contract holds for every command, and :func:`main` alone keeps it:
each command returns its body records, its summary and its verdict line
to ``main``; ``--out PATH`` gets one JSON record per line, a ``run``
record of the parsed arguments first, the body, and one ``summary``
record last.  A suite's body is one ``check`` record per check it
returns, and the suite passes exactly when every check passes.  The
verdict line and ``elapsed`` print only after ``--out`` is written; the
exit code is 0 exactly when the summary has ``passed``.  Records never
contain wall-clock times or other run-varying data, so reruns with the
same arguments write byte-identical files.  Exit codes: 0 success, 1
verification failure, 2 bad input or usage, 3 refused for budget.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from .augment import attach_channels, random_channels
from .errors import (BudgetError, InputError, NumericIntegrityError, PreconditionError,
                     StructuralError)
from .functionals import (
    DECOMPOSITION_TOL,
    Direction,
    random_direction,
    verify_linear_decomposition,
)
from .optimize import ALPHABET_BOUND_TOL, trace_inner_bound, verify_alphabet_bound
from .problem_io import load_channels, load_directions, resolve_problem
from .region import (
    ACTIVE_TOL,
    check_permutation,
    enumerate_extreme_points,
    membership,
    nondegeneracy_report,
    rate_lhs,
    verify_chain_identities,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _json_default(value):
    """numpy arrays and scalars as their Python equivalents; anything else is a bug."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# one encoder for every record: json.dumps would build a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default)


def _emit(records: list[dict], out: str | None) -> None:
    """Write the JSONL records to ``out``; a regular file is replaced whole, mode kept."""
    if out is None:
        return
    lines = [_ENCODER.encode(r) for r in records]
    tmp = f"{out}.{os.getpid()}.tmp"   # beside the target; no live run shares a pid
    try:
        old = os.lstat(out) if os.path.lexists(out) else None
        if old is not None and not stat.S_ISREG(old.st_mode):
            tmp = out   # a rename would replace a device, FIFO or symlink: write in place
        Path(tmp).write_text("\n".join(lines) + "\n")
        if tmp != out:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.replace(tmp, out)
    except OSError as exc:
        if tmp != out:
            with contextlib.suppress(OSError):   # the temporary may never have been made
                os.unlink(tmp)
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _bank(spec, args):
    if args.channels:
        return load_channels(args.channels, spec)
    return random_channels(spec, np.random.default_rng(args.seed))


def _random_directions(spec, seed: int, count: int, stream: int) -> list[Direction]:
    """``count`` draws of :func:`random_direction` from the stream ``(seed, stream)``."""
    rng = np.random.default_rng((seed, stream))
    return [random_direction(spec.m, spec.j, spec.l, rng) for _ in range(count)]


def _run_record(args, spec) -> dict:
    """The run header: the problem and every parsed argument of the command."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "command", "problem", "out")}
    return {
        "type": "run",
        "command": args.command,
        "problem": args.problem,
        "name": spec.name,
        "m": spec.m,
        "j": spec.j,
        "l": spec.l,
        "params": params,
    }


def _fmt_rates(rates) -> str:
    return "[" + " ".join(map("{:.6f}".format, rates)) + "]"


# ---- extreme-points ---------------------------------------------------------


@functools.cache
def _groups_lexicographic(m: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The nonempty groups of 1..M as member tuples in lexicographic order, with
    their columns (bitmask - 1) in a constraint report."""
    groups = sorted((tuple(i + 1 for i in range(m) if mask >> i & 1), mask - 1)
                    for mask in range(1, 1 << m))
    return np.array([col for _, col in groups]), tuple(g for g, _ in groups)


def cmd_extreme_points(args, spec) -> tuple[list[dict], dict, str]:
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    points = enumerate_extreme_points(aug)
    ndg = nondegeneracy_report(aug)
    full_info = rate_lhs(aug, range(1, spec.m + 1))

    perms = [list(perm) for perm, _ in points]
    rates = np.array([r for _, r in points])
    report = membership(aug, rates, args.tol)
    active = report.active
    # the groups tight at a corner: the suffix of its order after each prefix
    bits = np.left_shift(1, np.array(perms) - 1)
    suffixes = ((1 << spec.m) - 1) ^ (np.bitwise_or.accumulate(bits, axis=1) ^ bits)
    expected = np.zeros_like(active)
    np.put_along_axis(expected, suffixes - 1, True, axis=1)
    sums = rates.sum(axis=1)
    ok = report.is_member & ~(expected & ~active).any(axis=1)
    if not ndg.degenerate:
        ok &= (active == expected).all(axis=1)
    columns, groups = _groups_lexicographic(spec.m)

    records, lines = [], []
    for perm, row, total, member, good, tight in zip(
            perms, rates.tolist(), sums.tolist(), report.is_member.tolist(), ok.tolist(),
            active[:, columns].tolist()):
        records.append({
            "type": "corner",
            "perm": perm,
            "rates": row,
            "sum_rate": total,
            "member": member,
            "active": list(itertools.compress(groups, tight)),
            "ok": good,
        })
        lines.append(f"corner {perm}: rates={_fmt_rates(row)} "
                     f"sum={total:.6f} member={member} ok={good}")
    print("\n".join(lines))

    passed = bool(ok.all())
    spread = float(sums.max() - sums.min())
    summary = {
        "passed": passed,
        "corners": len(points),
        "degenerate": ndg.degenerate,
        "sum_rate_spread": spread,
        "full_group_information": full_info,
    }
    return records, summary, (
        f"{len(points)} corner(s), smallest separation {ndg.min_value:.3e}; "
        f"sum-rate spread {spread:.3e}; {'PASS' if passed else 'FAIL'}")


# ---- verify -----------------------------------------------------------------


def _suite(run):
    """A verify suite as a command: each ``(name, passed, detail)`` check it returns
    is one ``check`` record, and the suite passes exactly when every check does."""
    def command(args, spec) -> tuple[list[dict], dict, str]:
        records = [{"type": "check", "suite": args.suite, "name": name, "passed": passed,
                    "detail": detail} for name, passed, detail in run(args, spec)]
        passed = all(r["passed"] for r in records)
        return records, {"suite": args.suite, "passed": passed}, "PASS" if passed else "FAIL"
    return command


@_suite
def _suite_identities(args, spec) -> list[tuple]:
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    report = verify_chain_identities(aug, trials=args.trials, tol=args.tol, seed=(args.seed, 2))
    checks = []
    for check in report.checks:
        detail = {
            "trials": check.trials,
            "worst_violation": check.worst_violation,
        }
        if not check.passed:
            # counterexample dump: the failing draws plus the channel bank
            detail["failures"] = [dict(f) for f in check.failures[:5]]
            detail["channels"] = [ch.rows for ch in channels]
        checks.append((check.name, check.passed, detail))
        print(f"identity {check.name}: worst violation "
              f"{check.worst_violation:.3e} over {check.trials} trials "
              f"{'ok' if check.passed else 'FAILED'}")
    return checks


def _noncrossing(aug, rates: np.ndarray, tol: float, degenerate: bool,
                 what: str) -> tuple[list, list]:
    """Print and return whether the tight groups chain at each row of ``rates``; a row
    outside the region at ``tol`` fails, and its detail carries its worst slack."""
    report = membership(aug, rates, tol)
    inside = report.is_member
    chained = inside & (report.chained | degenerate)
    worst = report.slack.min(axis=-1)
    print(f"tight sets chain at {what}: {'ok' if chained.all() else 'FAILED'}")
    if not inside.all():
        print(f"  {(~inside).sum()} of {len(rates)} outside the region at tol {tol:g} "
              f"(worst slack {worst.min():.3e})")
    return chained.tolist(), [{} if member else {"worst_slack": w} for member, w
                              in zip(inside.tolist(), worst.tolist())]


@_suite
def _suite_noncrossing(args, spec) -> list[tuple]:
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    points = enumerate_extreme_points(aug)
    # tight groups form a chain only under strict supermodularity
    degenerate = nondegeneracy_report(aug).degenerate
    corners = np.array([r for _, r in points])
    chained, extra = _noncrossing(aug, corners, args.tol, degenerate,
                                  f"all {len(points)} corners")
    checks = [(f"corner-{idx}", ok, {"perm": list(perm), **out})
              for idx, ((perm, _), ok, out) in enumerate(zip(points, chained, extra))]
    rng = np.random.default_rng((args.seed, 1))
    members = (rng.dirichlet(np.ones(len(points)), size=args.samples) @ corners
               + rng.exponential(0.05, size=(args.samples, spec.m)))
    chained, extra = _noncrossing(aug, members, args.tol, degenerate,
                                  f"{args.samples} random members")
    return checks + [(f"member-{t}", ok, out if ok else {"rates": rates, **out})
                     for t, (rates, ok, out) in enumerate(zip(members, chained, extra))]


@_suite
def _suite_decomposition(args, spec) -> list[tuple]:
    if not spec.channel_slots:
        raise InputError("decomposition is vacuous without channel slots")
    checks = []
    for t in range(args.trials):
        rng = np.random.default_rng((args.seed, t))
        channels = random_channels(spec, rng)
        direction = random_direction(spec.m, spec.j, spec.l, rng)
        report = verify_linear_decomposition(spec, channels, direction, args.tol)
        detail = {"worst_error": report.worst_error}
        if not report.passed:
            # counterexample dump for reproduction
            detail["channels"] = [ch.rows for ch in channels]
            detail["direction"] = direction.coords
        checks.append((f"draw-{t}", report.passed, detail))
    worst = max(detail["worst_error"] for _, _, detail in checks)
    print(f"mixture decomposition over {args.trials} random draws: worst error "
          f"{worst:.3e} {'ok' if all(ok for _, ok, _ in checks) else 'FAILED'}")
    return checks


@_suite
def _suite_alphabet_bound(args, spec) -> list[tuple]:
    if args.directions:
        directions = load_directions(args.directions, spec)
    else:
        directions = _random_directions(spec, args.seed, args.trials, 2)
    report = verify_alphabet_bound(
        spec, directions, grid=args.grid, tol=args.tol, sweeps=args.sweeps,
        candidates=args.candidates, restarts=args.restarts, seed=args.seed,
    )
    checks = []
    for idx, entry in enumerate(report.entries):
        checks.append((f"direction-{idx}", entry.passed, {
            "capped_value": entry.capped_value,
            "capped_lattice_value": entry.capped_lattice_value,
            "enlarged_value": entry.enlarged_value,
            "margin": entry.margin,
            "capped_grid": report.capped_grid,
            "enlarged_grid": report.enlarged_grid,
        }))
        print(f"direction {idx}: capped {entry.capped_value:.6f} (lattice "
              f"{entry.capped_lattice_value:.6f}) vs enlarged "
              f"{entry.enlarged_value:.6f} (margin {entry.margin:+.2e}) "
              f"{'ok' if entry.passed else 'FAILED'}")
    print(f"lattice grids: capped {report.capped_grid}, "
          f"enlarged {report.enlarged_grid} "
          f"(outputs {list(report.capped_sizes)} vs {list(report.enlarged_sizes)})")
    return checks


# ---- trace ------------------------------------------------------------------


def cmd_trace(args, spec) -> tuple[list[dict], dict, None]:
    if args.directions:
        directions = load_directions(args.directions, spec)
    elif args.sweep is not None:
        if spec.m - spec.j + spec.l != 2:
            raise InputError(
                "--sweep needs exactly two weight coordinates; this problem "
                f"has {spec.m - spec.j} free rate(s) and {spec.l} distortion(s)"
            )
        directions = [
            Direction.normalized(
                spec.m, spec.j, spec.l,
                [math.cos(theta), math.sin(theta)],
            )
            for theta in np.linspace(0.0, math.pi / 2, args.sweep)
        ]
    else:
        directions = _random_directions(spec, args.seed, args.count, 3)
    perm = None
    if args.perm is not None:
        try:
            perm = check_permutation(args.perm, spec.m)
        except StructuralError as exc:
            raise InputError(f"bad --perm: {exc}") from exc

    points = trace_inner_bound(
        spec, directions, perm=perm, restarts=args.restarts,
        sweeps=args.sweeps, candidates=args.candidates, seed=args.seed,
    )
    records = []
    for idx, point in enumerate(points):
        records.append({
            "type": "trace-point",
            "index": idx,
            "direction": {
                "rates": point.direction.rate_weights,
                "distortions": point.direction.distortion_weights,
            },
            "objective": point.result.objective,
            "rates": point.rates,
            "distortions": point.distortions,
            "sweeps": point.result.sweeps_run,
            "restart": point.restart_index,
            "trace": point.result.trace,
        })
        print(f"direction {idx}: objective {point.result.objective:.6f} "
              f"rates={_fmt_rates(point.rates)} "
              f"distortions={_fmt_rates(point.distortions)} "
              f"({point.result.sweeps_run} sweep(s), restart {point.restart_index})")
    return records, {"passed": True, "points": len(points)}, None


# ---- parser -----------------------------------------------------------------


def _ranged(convert, rule: str, ok):
    """An argparse type: ``convert(text)``, a usage error naming the flag unless ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = convert.__name__   # argparse names it in "invalid int value: 'x'"
    return parse


_NATURAL = _ranged(int, ">= 0", lambda v: v >= 0)
_COUNT = _ranged(int, ">= 1", lambda v: v >= 1)
_POINTS = _ranged(int, ">= 2", lambda v: v >= 2)
_TOL = _ranged(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


def _perm(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be integers P1,P2,..., got {text!r}") from None


def _descent_flags(p, restarts: str) -> None:
    p.add_argument("--restarts", type=_COUNT, default=restarts,
                   help="descents per direction (default %(default)s)")
    p.add_argument("--sweeps", type=_COUNT, default="50",
                   help="most sweeps per descent (default %(default)s)")
    p.add_argument("--candidates", type=_NATURAL, default="64",
                   help="random pool points per slot step (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    # Defaults are command-line text that passes through the flag's type.  A
    # mutually exclusive group ignores a flag whose parsed value *is* its
    # default object, as a small int typed on the command line would be.
    parser = argparse.ArgumentParser(
        prog="canonical-region",
        description="Corner points, verification suites, and frontier tracing "
                    "for multiterminal rate regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("problem", help="problem file path or bundled problem name")
    target.add_argument("--out", metavar="PATH", help="write JSONL records here")
    seeded = argparse.ArgumentParser(add_help=False, parents=[target])
    seeded.add_argument("--seed", type=_NATURAL, default="42",
                        help="random seed (default %(default)s)")
    channels = "channel bank JSON file (default: a random bank from --seed)"
    directions = "directions JSON file"
    tol = "tolerance (default %(default)s)"

    p = sub.add_parser("extreme-points", parents=[target],
                       help="enumerate and check all corners")
    bank = p.add_mutually_exclusive_group()
    bank.add_argument("--channels", metavar="PATH", help=channels)
    bank.add_argument("--seed", type=_NATURAL, default="42",
                      help="random bank seed (default %(default)s)")
    p.add_argument("--tol", type=_TOL, default=repr(ACTIVE_TOL), help=tol)
    p.set_defaults(func=cmd_extreme_points)

    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    p = suites.add_parser("identities", parents=[seeded], help="decomposition identities")
    p.add_argument("--trials", type=_COUNT, default="200",
                   help="random draws (default %(default)s)")
    p.add_argument("--tol", type=_TOL, default=repr(ACTIVE_TOL), help=tol)
    p.add_argument("--channels", metavar="PATH", help=channels)
    p.set_defaults(func=_suite_identities)

    p = suites.add_parser("noncrossing", parents=[seeded], help="tight sets form chains")
    p.add_argument("--samples", type=_NATURAL, default="50",
                   help="random member points (default %(default)s)")
    p.add_argument("--tol", type=_TOL, default=repr(ACTIVE_TOL), help=tol)
    p.add_argument("--channels", metavar="PATH", help=channels)
    p.set_defaults(func=_suite_noncrossing)

    p = suites.add_parser("decomposition", parents=[seeded], help="per-slot mixtures")
    p.add_argument("--trials", type=_COUNT, default="20",
                   help="random banks and directions (default %(default)s)")
    p.add_argument("--tol", type=_TOL, default=repr(DECOMPOSITION_TOL), help=tol)
    p.set_defaults(func=_suite_decomposition)

    p = suites.add_parser("alphabet-bound", parents=[seeded], help="larger outputs do not help")
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--directions", metavar="PATH", help=directions)
    chosen.add_argument("--trials", type=_COUNT, default="4",
                        help="random directions (default %(default)s)")
    p.add_argument("--grid", type=_COUNT, default="12",
                   help="lattice resolution (default %(default)s)")
    _descent_flags(p, restarts="4")
    p.add_argument("--tol", type=_TOL, default=repr(ALPHABET_BOUND_TOL), help=tol)
    p.set_defaults(func=_suite_alphabet_bound)

    p = sub.add_parser("trace", parents=[seeded], help="trace the inner bound along directions")
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--directions", metavar="PATH", help=directions)
    chosen.add_argument("--sweep", type=_POINTS, metavar="N",
                        help="N-point quarter-circle sweep (two weight coordinates only)")
    chosen.add_argument("--count", type=_COUNT, default="8",
                        help="random directions (default %(default)s)")
    p.add_argument("--perm", type=_perm, metavar="P1,P2,...",
                   help="processing order whose corner to report")
    _descent_flags(p, restarts="8")
    p.set_defaults(func=cmd_trace)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 2 on a usage error, 0 after --help
        return exc.code
    start = time.perf_counter()
    try:
        spec = resolve_problem(args.problem)
        body, summary, verdict = args.func(args, spec)
        _emit([_run_record(args, spec), *body,
               {"type": "summary", "command": args.command, **summary}], args.out)
    except (NumericIntegrityError, PreconditionError) as exc:   # a broken internal guarantee
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if verdict is not None:
        print(verdict)
    print(f"elapsed {time.perf_counter() - start:.2f}s")
    return EXIT_OK if summary["passed"] else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
