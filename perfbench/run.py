"""Benchmark for canonical-region: three workloads driven through the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload optimizer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process per workload calls ``canonical_region.cli.main`` in-process
as a closed loop with a single client.  A run is a sequence of rounds;
each round runs the workload's operations once with a ``--seed`` drawn
from the workload seed and checks every operation's ``--out`` records
(see ``workloads.py``).  The number of rounds is ``--seconds`` over the
workload's nominal round time, with at least two: it depends on the
arguments only, never on the clock, so two runs with the same arguments
attempt the same operations and report the same ``attempted`` and
``failed``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it reports per-layer metrics from ``tracer.py``, from pairs
of rounds that share a seed, one traced and one untraced, whose ratio
is the tracing overhead.  Per-layer counts and self times are per traced
round.  Set-up time is the median of several fresh interpreters, each
importing the package, generating the inputs and loading the problems.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
fails on an exit code other than 0, a summary that did not pass, or a
failed output check.  ``correct`` is false only when an output check
fails or an operation produced no records: a program that reports its
own verification failure has still produced outputs, which are checked.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
MIN_ROUNDS = 2          # untraced rounds per run; a traced run has at least one pair
TAIL_CHARS = 2000

PER_LAYER_CALLS = (
    "pmf.mi_sets", "pmf.marginal", "augment.attach_channels", "augment.convert",
    "region.membership", "region.corner_point", "region.rate_lhs",
    "functionals.theta", "functionals.direct_weighted_value",
    "functionals.FunctionalContext", "simplex.solve_equality_lp",
    "optimize.brute_force_search", "optimize.optimize_single_channel",
    "optimize.coordinate_descent", "problem_io.resolve_problem",
)
PER_LAYER_SELF = (
    "pmf.mi_sets", "pmf.marginal", "augment.attach_channels", "augment.convert",
    "region.membership", "region.corner_point", "functionals.theta",
    "functionals.direct_weighted_value", "simplex.solve_equality_lp",
    "optimize.brute_force_search", "optimize.optimize_single_channel",
    "problem_io.resolve_problem", "cli.main",
)


def import_package() -> None:
    """Import canonical_region from this checkout's ``src``, or exit 2."""
    if not (SRC / "canonical_region" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import canonical_region
    if Path(canonical_region.__file__).resolve().parent != SRC / "canonical_region":
        print(f"error: imported canonical_region from {canonical_region.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


class _Sink(io.TextIOBase):
    """Stands in for stdout/stderr of an operation: counts bytes, keeps a tail."""

    def __init__(self) -> None:
        self.bytes = 0
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        self.tail = (self.tail + text)[-TAIL_CHARS:]
        return len(text)


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    failures: list[dict] = field(default_factory=list)

    def add(self, op, code, checked, tail: str) -> None:
        self.attempted += 1
        if checked.failed:
            self.failed += 1
            self.incorrect += bool(checked.problems)
            self.failures.append({
                "argv": [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
                         for a in op.argv],
                "exit": code,
                "problems": checked.problems[:5], "output_tail": tail[-400:],
            })


def run_op(op, out_path: Path, tracer=None):
    """Call the CLI once; return (exit code, seconds, records or None, output tail).

    When traced, the bytes written to stdout and ``--out`` are counted.
    """
    from canonical_region import cli

    sink = _Sink()
    argv = list(op.argv) + ["--out", str(out_path)]
    with redirect_stdout(sink), redirect_stderr(sink):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the loop must go on; the failure is recorded
            code = -1
            sink.write(traceback.format_exc())
        seconds = perf_counter() - start
    records = None
    out_bytes = sink.bytes
    if out_path.is_file():
        text = out_path.read_text()
        out_bytes += len(text.encode())
        records = [json.loads(line) for line in text.splitlines() if line]
        out_path.unlink()
    if tracer is not None:
        tracer.end_op()
        tracer.count("cli.out_bytes", out_bytes)
    return code, seconds, records, sink.tail


@dataclass
class Round:
    wall_s: float = 0.0        # wall-clock seconds inside the CLI calls
    seconds: float = 0.0       # the same, rescaled to the probe's reference speed
    items: int = 0


def run_round(workload, specs, refs, round_seed, workdir, tally, speed,
              tracer=None) -> Round:
    """Run the workload's operations once, probing machine speed after each."""
    import workloads

    result = Round()
    mark = speed.start()
    for op in workload.round_ops(refs, round_seed):
        code, secs, records, tail = run_op(op, workdir / "out.jsonl", tracer)
        speed.measure()
        result.wall_s += secs
        checked = workloads.check(op, code, records, specs[op.problem])
        tally.add(op, code, checked, tail)
        result.items += checked.items
    result.seconds = speed.rescale(result.wall_s, mark)
    return result


def _setup_once(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter doing the workload's whole set-up."""
    directory = WORK / f"setup-{name}-{os.getpid()}"
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(directory),
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    seconds = perf_counter() - start
    shutil.rmtree(directory, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {done.stderr[-TAIL_CHARS:]}")
    return seconds


def round_count(workload, seconds: float, trace: bool) -> int:
    """Rounds (untraced) or round pairs (traced) that fit in ``seconds`` nominally."""
    per_unit = workload.round_s * (2 if trace else 1)
    return max(1 if trace else MIN_ROUNDS, int(seconds // per_unit))


def _layer_metrics(tracer, untraced: list[Round], traced: list[Round]) -> dict:
    selfs = tracer.self_times()
    counters = tracer.counters
    per_round = 1.0 / len(traced)

    def calls(name):
        return selfs.get(name, (0, 0.0))[0]

    def self_s(name):
        return selfs.get(name, (0, 0.0))[1]

    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls(name) * per_round, "calls/round")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (self_s(name) * per_round, "s/round")
    lookups = counters["pmf.entropy.lookups"]
    metrics["pmf.entropy.lookups"] = (lookups * per_round, "lookups/round")
    metrics["pmf.entropy.hit_ratio"] = (
        1.0 - counters["pmf.entropy.misses"] / lookups if lookups else 0.0, "ratio")
    metrics["pmf.JointPmf.cells"] = (counters["pmf.JointPmf.cells"] * per_round,
                                     "cells/round")
    rate_calls = calls("region.rate_lhs")
    metrics["region.rate_lhs.unique_ratio"] = (
        counters["region.rate_lhs.distinct"] / rate_calls if rate_calls else 0.0, "ratio")
    lp_calls = calls("simplex.solve_equality_lp")
    metrics["simplex.lp_columns.mean"] = (
        counters["simplex.lp_columns.total"] / lp_calls if lp_calls else 0.0, "columns")
    metrics["optimize.lattice.points"] = (
        counters["optimize.lattice.points"] * per_round, "points/round")
    chunks = counters["optimize.lattice.chunks"]
    metrics["optimize.lattice.chunk_s"] = (
        self_s("optimize.brute_force_search") / chunks if chunks else 0.0, "s/chunk")
    metrics["optimize.descent.sweeps"] = (
        counters["optimize.descent.sweeps"] * per_round, "sweeps/round")
    metrics["cli.out_bytes"] = (counters["cli.out_bytes"] * per_round, "B/round")
    untraced_p50 = statistics.median(r.seconds for r in untraced)
    traced_p50 = statistics.median(r.seconds for r in traced)
    metrics["trace.untraced_round_s.p50"] = (untraced_p50, "s")
    metrics["trace.traced_round_s.p50"] = (traced_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    return metrics


def _accounting(tracer, traced_rounds: int, traced_seconds: float) -> list[dict]:
    """Self time per span name, per traced round, largest first."""
    rows = []
    for name, (calls, total) in sorted(tracer.self_times().items(),
                                       key=lambda item: -item[1][1]):
        if not calls:
            continue
        rows.append({
            "span": name,
            "calls_per_round": calls / traced_rounds,
            "self_s_per_round": total / traced_rounds,
            "share": total / traced_seconds if traced_seconds else 0.0,
        })
    return rows


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import envinfo
    import workloads
    from canonical_region import resolve_problem
    from probe import Probe, SpeedLog
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    load_before = envinfo.loadavg()
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    tally = Tally()
    untraced: list[Round] = []
    traced: list[Round] = []
    with Probe() as probe:
        speed = SpeedLog(probe)
        mark = speed.start()
        setup_wall = []
        for _ in range(SETUP_REPEATS):
            setup_wall.append(_setup_once(name, seed))
            speed.measure()
        setup_runs = [speed.rescale(s, mark) for s in setup_wall]
        try:
            specs = workloads.setup(workload, seed, workdir)
            refs = list(specs)
            reference = workloads.Op(workloads.REFERENCE_OP_ARGV, "bwz")
            code, _, records, tail = run_op(reference, workdir / "out.jsonl")
            checked = workloads.check(reference, code, records, resolve_problem("bwz"))
            tally.add(reference, code, checked, tail)

            rng = np.random.default_rng(seed)
            for unit in range(round_count(workload, seconds, trace)):
                round_seed = int(rng.integers(0, 2**31 - 1))
                if not trace:
                    untraced.append(run_round(workload, specs, refs, round_seed,
                                              workdir, tally, speed))
                    continue
                # a traced and an untraced round on one seed, order alternating
                for traced_turn in (False, True) if unit % 2 == 0 else (True, False):
                    if traced_turn:
                        with tracer.installed():
                            traced.append(run_round(workload, specs, refs, round_seed,
                                                    workdir, tally, speed, tracer))
                    else:
                        untraced.append(run_round(workload, specs, refs, round_seed,
                                                  workdir, tally, speed))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        probes = speed.times

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {**envinfo.environment(ROOT), "loadavg_before": load_before,
                        "loadavg_after": envinfo.loadavg()},
        "setup_wall_s": setup_wall,
        "setup_s": setup_runs,
        "round_wall_s": [r.wall_s for r in untraced],
        "round_s": [r.seconds for r in untraced],
        "probe_s": probes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "correct": tally.incorrect == 0,
        "failures": tally.failures,
        "item": workload.item,
    }
    if trace:
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.save(WORK / f"spans-{name}-seed{seed}.npz")
        result["traced_round_wall_s"] = [r.wall_s for r in traced]
        result["traced_round_s"] = [r.seconds for r in traced]
        result["accounting"] = _accounting(tracer, len(traced),
                                           sum(r.wall_s for r in traced))
        metrics = _layer_metrics(tracer, untraced, traced)
    else:
        metrics = {
            "round_s.p50": (statistics.median(result["round_s"]), "s"),
            "setup_s": (statistics.median(setup_runs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "items_per_s": (statistics.median(r.items / r.seconds for r in untraced), "1/s"),
            "bwz_wz_gap": (checked.wz_gap, "bit"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


# ---- reporting ------------------------------------------------------------------------


def _row(result: dict) -> str:
    """One table row with every end-to-end metric under its reported name."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    n = len(result["round_s"])
    wall = statistics.median(result["round_wall_s"])
    return (
        f"{result['workload']:<10} round_s.p50={m['round_s.p50']:.3f}s (n={n}, "
        f"wall {wall:.3f}s) "
        f"setup_s={m['setup_s']:.3f}s peak_rss_mb={m['peak_rss_mb']:.1f}MB "
        f"fail_ratio={result['fail_ratio']:.4f} ({result['failed']}/{result['attempted']}) "
        f"{result['item']}_per_s={m['items_per_s']:.6g}/s "
        f"bwz_wz_gap={m['bwz_wz_gap']}bit correct={result['correct']}"
    )


def _print_layers(result: dict) -> None:
    for row in result["accounting"]:
        print(f"  {row['span']:<36} {row['calls_per_round']:>12.1f} calls/round "
              f"{row['self_s_per_round']:>10.4f} s/round {100 * row['share']:6.2f}%")
    for key, entry in result["metrics"].items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")


def _final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _result_path(name: str, seed: int, trace: int) -> Path:
    return WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimizer", "lattice", "region", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only import, generate the inputs into DIR and load them")
    args = parser.parse_args(argv)
    import_package()
    import workloads

    if args.setup_only:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed, Path(args.setup_only))
        return 0

    if args.workload == "all":
        results = []
        for name in workloads.WORKLOADS:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            results.append(json.loads(_result_path(name, args.seed, args.trace).read_text()))
        for result in results:
            if args.trace:
                print(f"{result['workload']} (traced, per traced round):")
                _print_layers(result)
            else:
                print(_row(result))
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
        print(_final_line(all(r["correct"] for r in results),
                          sum(r["attempted"] for r in results),
                          sum(r["failed"] for r in results), metrics))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = _result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"environment": result["environment"]}))
    if args.trace:
        _print_layers(result)
    else:
        print(_row(result))
    print(_final_line(result["correct"], result["attempted"], result["failed"],
                      result["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
