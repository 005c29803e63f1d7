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

Results stream to stdout as text; ``--out PATH`` additionally writes one
JSON record per line.  Records never contain wall-clock times or other
run-varying data, so reruns with the same arguments write byte-identical
files.  Exit codes: 0 success, 1 verification failure, 2 bad input,
3 refused for budget.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from .augment import attach_channels, random_channels
from .errors import (
    BudgetError,
    InputError,
    NumericIntegrityError,
    StructuralError,
)
from .functionals import (
    DECOMPOSITION_TOL,
    Direction,
    random_direction,
    verify_linear_decomposition,
)
from .optimize import ALPHABET_BOUND_TOL, trace_inner_bound, verify_alphabet_bound
from .problem_io import (
    load_channels,
    load_directions,
    resolve_problem,
)
from .region import (
    ACTIVE_TOL,
    check_permutation,
    enumerate_extreme_points,
    expected_active_groups,
    membership,
    nondegeneracy_report,
    rate_lhs,
    verify_chain_identities,
    verify_noncrossing,
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


def _emit(records: list[dict], out: str | None) -> None:
    """Write the JSONL records to ``out``; a regular file is replaced whole, mode kept."""
    if out is None:
        return
    lines = [
        json.dumps(r, sort_keys=True, separators=(",", ":"), default=_json_default)
        for r in records
    ]
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
        raise InputError(f"cannot write {out}: {exc}") from exc


def _bank(spec, args):
    if getattr(args, "channels", None):
        return load_channels(args.channels, spec)
    return random_channels(spec, np.random.default_rng(args.seed))


def _random_directions(spec, seed: int, flag: str, count: int, stream: int) -> list[Direction]:
    """``count`` draws of :func:`random_direction` from the stream ``(seed, stream)``.

    ``flag`` is the option that set ``count``, named when it is below 1.
    """
    if count < 1:
        raise InputError(f"{flag} must be >= 1, got {count}")
    rng = np.random.default_rng((seed, stream))
    return [random_direction(spec.m, spec.j, spec.l, rng) for _ in range(count)]


def _run_record(args, spec, command: str, **params) -> dict:
    return {
        "type": "run",
        "command": command,
        "problem": args.problem,
        "name": spec.name,
        "m": spec.m,
        "j": spec.j,
        "l": spec.l,
        "params": params,
    }


def _fmt_rates(rates) -> str:
    return "[" + " ".join(f"{float(r):.6f}" for r in rates) + "]"


# ---- extreme-points ---------------------------------------------------------


def cmd_extreme_points(args) -> int:
    spec = resolve_problem(args.problem)
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    points = enumerate_extreme_points(aug)
    ndg = nondegeneracy_report(aug)
    full_info = rate_lhs(aug, range(1, spec.m + 1))

    records = [_run_record(args, spec, "extreme-points",
                           seed=args.seed, tol=args.tol,
                           channels=args.channels or "")]
    passed = True
    sum_rates = []
    for perm, rates in points:
        report = membership(aug, rates, args.tol)
        expected = set(expected_active_groups(perm))
        active = set(report.active_groups)
        ok = report.is_member and expected <= active
        if not ndg.degenerate:
            ok = ok and active == expected
        total = float(rates.sum())
        sum_rates.append(total)
        ok = ok and abs(total - full_info) <= args.tol
        passed = passed and ok
        records.append({
            "type": "corner",
            "perm": list(perm),
            "rates": rates,
            "sum_rate": total,
            "member": report.is_member,
            "active": sorted(sorted(g) for g in active),
            "ok": ok,
        })
        print(f"corner {list(perm)}: rates={_fmt_rates(rates)} "
              f"sum={total:.6f} member={report.is_member} ok={ok}")

    spread = max(sum_rates) - min(sum_rates)
    records.append({
        "type": "summary",
        "command": "extreme-points",
        "passed": passed,
        "corners": len(points),
        "degenerate": ndg.degenerate,
        "sum_rate_spread": spread,
        "full_group_information": full_info,
    })
    _emit(records, args.out)
    print(f"{len(points)} corner(s), smallest separation {ndg.min_value:.3e}; "
          f"sum-rate spread {spread:.3e}; {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFICATION


# ---- verify -----------------------------------------------------------------


def _suite_identities(args, spec, records: list[dict]) -> bool:
    trials = 200 if args.trials is None else args.trials
    tol = ACTIVE_TOL if args.tol is None else args.tol
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    report = verify_chain_identities(aug, trials=trials, tol=tol, seed=args.seed)
    for check in report.checks:
        detail = {
            "trials": check.trials,
            "worst_violation": check.worst_violation,
        }
        if not check.passed:
            # counterexample dump: the failing draws plus the channel bank
            detail["failures"] = [dict(f) for f in check.failures[:5]]
            detail["channels"] = [ch.rows for ch in channels]
        records.append({
            "type": "check",
            "suite": "identities",
            "name": check.name,
            "passed": check.passed,
            "detail": detail,
        })
        print(f"identity {check.name}: worst violation "
              f"{check.worst_violation:.3e} over {check.trials} trials "
              f"{'ok' if check.passed else 'FAILED'}")
    return report.passed


def _suite_noncrossing(args, spec, records: list[dict]) -> bool:
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    tol = ACTIVE_TOL if args.tol is None else args.tol
    channels = _bank(spec, args)
    aug = attach_channels(spec, channels)
    points = enumerate_extreme_points(aug)
    # tight groups form a chain only under strict supermodularity
    degenerate = nondegeneracy_report(aug).degenerate
    passed = True
    for idx, (perm, rates) in enumerate(points):
        ok = verify_noncrossing(aug, rates, tol) or degenerate
        passed = passed and ok
        records.append({
            "type": "check",
            "suite": "noncrossing",
            "name": f"corner-{idx}",
            "passed": ok,
            "detail": {"perm": list(perm)},
        })
    print(f"tight sets chain at all {len(points)} corners: "
          f"{'ok' if passed else 'FAILED'}")
    rng = np.random.default_rng((args.seed, 1))
    corners = np.array([r for _, r in points])
    members_ok = True
    for t in range(args.samples):
        weights = rng.dirichlet(np.ones(len(points)))
        rates = weights @ corners + rng.exponential(0.05, size=spec.m)
        ok = verify_noncrossing(aug, rates, tol) or degenerate
        members_ok = members_ok and ok
        records.append({
            "type": "check",
            "suite": "noncrossing",
            "name": f"member-{t}",
            "passed": ok,
            "detail": {} if ok else {"rates": rates},
        })
    print(f"tight sets chain at {args.samples} random members: "
          f"{'ok' if members_ok else 'FAILED'}")
    return passed and members_ok


def _suite_decomposition(args, spec, records: list[dict]) -> bool:
    if not spec.channel_slots:
        raise InputError("decomposition is vacuous without channel slots")
    trials = 20 if args.trials is None else args.trials
    if trials < 1:
        raise InputError(f"--trials must be >= 1, got {trials}")
    tol = DECOMPOSITION_TOL if args.tol is None else args.tol
    passed = True
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng((args.seed, t))
        channels = random_channels(spec, rng)
        direction = random_direction(spec.m, spec.j, spec.l, rng)
        report = verify_linear_decomposition(spec, channels, direction, tol)
        passed = passed and report.passed
        worst = max(worst, report.worst_error)
        detail = {"worst_error": report.worst_error}
        if not report.passed:
            # counterexample dump for reproduction
            detail["channels"] = [ch.rows for ch in channels]
            detail["direction"] = direction.coords
        records.append({
            "type": "check",
            "suite": "decomposition",
            "name": f"draw-{t}",
            "passed": report.passed,
            "detail": detail,
        })
    print(f"mixture decomposition over {trials} random draws: worst error "
          f"{worst:.3e} {'ok' if passed else 'FAILED'}")
    return passed


def _suite_alphabet_bound(args, spec, records: list[dict]) -> bool:
    tol = ALPHABET_BOUND_TOL if args.tol is None else args.tol
    if args.directions:
        if args.trials is not None:
            raise InputError("--trials and --directions both set the directions; pass one")
        directions = load_directions(args.directions, spec)
    else:
        count = 4 if args.trials is None else args.trials
        directions = _random_directions(spec, args.seed, "--trials", count, 2)
    report = verify_alphabet_bound(
        spec, directions, grid=args.grid, tol=tol, sweeps=args.sweeps,
        candidates=args.candidates, restarts=args.restarts, seed=args.seed,
    )
    for idx, entry in enumerate(report.entries):
        records.append({
            "type": "check",
            "suite": "alphabet-bound",
            "name": f"direction-{idx}",
            "passed": entry.passed,
            "detail": {
                "capped_value": entry.capped_value,
                "enlarged_value": entry.enlarged_value,
                "margin": entry.margin,
                "capped_grid": report.capped_grid,
                "enlarged_grid": report.enlarged_grid,
            },
        })
        print(f"direction {idx}: capped {entry.capped_value:.6f} vs enlarged "
              f"{entry.enlarged_value:.6f} (margin {entry.margin:+.2e}) "
              f"{'ok' if entry.passed else 'FAILED'}")
    print(f"lattice grids: capped {report.capped_grid}, "
          f"enlarged {report.enlarged_grid} "
          f"(outputs {list(report.capped_sizes)} vs {list(report.enlarged_sizes)})")
    return report.passed


_SUITES = {
    "identities": _suite_identities,
    "noncrossing": _suite_noncrossing,
    "decomposition": _suite_decomposition,
    "alphabet-bound": _suite_alphabet_bound,
}

# the file flags each suite reads; the others refuse them rather than ignore them
_SUITE_FILES = {
    "identities": ("channels",),
    "noncrossing": ("channels",),
    "decomposition": (),
    "alphabet-bound": ("directions",),
}


def cmd_verify(args) -> int:
    for flag in ("channels", "directions"):
        if getattr(args, flag) and flag not in _SUITE_FILES[args.suite]:
            raise InputError(f"verify {args.suite} does not read --{flag}")
    spec = resolve_problem(args.problem)
    records = [_run_record(
        args, spec, "verify", suite=args.suite, seed=args.seed,
        trials=args.trials, tol=args.tol, grid=args.grid,
        samples=args.samples, sweeps=args.sweeps, candidates=args.candidates,
        restarts=args.restarts, channels=args.channels or "",
        directions=args.directions or "",
    )]
    passed = _SUITES[args.suite](args, spec, records)
    records.append({
        "type": "summary",
        "command": "verify",
        "suite": args.suite,
        "passed": passed,
    })
    _emit(records, args.out)
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VERIFICATION


# ---- trace ------------------------------------------------------------------


def cmd_trace(args) -> int:
    spec = resolve_problem(args.problem)
    if args.count is not None and (args.directions or args.sweep is not None):
        raise InputError("--count draws random directions; it does not combine with "
                         "--sweep or --directions")
    if args.directions:
        if args.sweep is not None:
            raise InputError("--sweep and --directions both set the directions; pass one")
        directions = load_directions(args.directions, spec)
    elif args.sweep is not None:
        if spec.m - spec.j + spec.l != 2:
            raise InputError(
                "--sweep needs exactly two weight coordinates; this problem "
                f"has {spec.m - spec.j} free rate(s) and {spec.l} distortion(s)"
            )
        if args.sweep < 2:
            raise InputError(f"--sweep needs at least 2 points, got {args.sweep}")
        directions = [
            Direction.normalized(
                spec.m, spec.j, spec.l,
                [math.cos(theta), math.sin(theta)],
            )
            for theta in np.linspace(0.0, math.pi / 2, args.sweep)
        ]
    else:
        count = 8 if args.count is None else args.count
        directions = _random_directions(spec, args.seed, "--count", count, 3)
    perm = None
    if args.perm is not None:
        try:
            perm = check_permutation(
                [int(p) for p in args.perm.split(",")], spec.m
            )
        except (ValueError, StructuralError) as exc:
            raise InputError(f"bad --perm {args.perm!r}: {exc}") from exc

    records = [_run_record(
        args, spec, "trace", seed=args.seed, count=len(directions),
        sweep=args.sweep or 0,
        perm=list(perm) if perm else [], restarts=args.restarts,
        sweeps=args.sweeps, candidates=args.candidates,
        directions=args.directions or "",
    )]
    points = trace_inner_bound(
        spec, directions, perm=perm, restarts=args.restarts,
        sweeps=args.sweeps, candidates=args.candidates, seed=args.seed,
    )
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
    records.append({
        "type": "summary",
        "command": "trace",
        "passed": True,
        "points": len(points),
    })
    _emit(records, args.out)
    return EXIT_OK


# ---- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonical-region",
        description="Corner points, verification suites, and frontier tracing "
                    "for multiterminal rate regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extreme-points", help="enumerate and check all corners")
    p.add_argument("problem", help="problem file path or bundled problem name")
    p.add_argument("--channels", metavar="PATH", help="channel bank JSON file")
    p.add_argument("--seed", type=int, default=42, help="seed for random channels")
    p.add_argument("--tol", type=float, default=ACTIVE_TOL, help="activeness tolerance")
    p.add_argument("--out", metavar="PATH", help="write JSONL records here")
    p.set_defaults(func=cmd_extreme_points)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("problem", help="problem file path or bundled problem name")
    p.add_argument("--trials", type=int, default=None,
                   help="random draws (identities: 200, decomposition: 20, "
                        "alphabet-bound directions: 4)")
    p.add_argument("--samples", type=int, default=50,
                   help="random member points for the noncrossing suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=None,
                   help=f"tolerance ({ACTIVE_TOL}; alphabet-bound: {ALPHABET_BOUND_TOL})")
    p.add_argument("--grid", type=int, default=12,
                   help="lattice resolution for alphabet-bound")
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--candidates", type=int, default=64)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--channels", metavar="PATH", help="channel bank JSON file")
    p.add_argument("--directions", metavar="PATH", help="directions JSON file")
    p.add_argument("--out", metavar="PATH", help="write JSONL records here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="trace the inner bound along directions")
    p.add_argument("problem", help="problem file path or bundled problem name")
    p.add_argument("--directions", metavar="PATH", help="directions JSON file")
    p.add_argument("--sweep", type=int, metavar="N",
                   help="N-point quarter-circle direction sweep (needs exactly "
                        "two weight coordinates; not with --directions)")
    p.add_argument("--count", type=int, default=None,
                   help="number of random directions (default 8; not with --sweep "
                        "or --directions)")
    p.add_argument("--perm", metavar="P1,P2,...",
                   help="processing order whose corner to report")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--candidates", type=int, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", metavar="PATH", help="write JSONL records here")
    p.set_defaults(func=cmd_trace)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise InputError(f"--tol must be finite and >= 0, got {tol}")
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
    except NumericIntegrityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"elapsed {time.perf_counter() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
