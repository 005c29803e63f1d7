"""Golden-output corpus: exit codes and output digests of a fixed CLI command set.

Every command runs in process from a temporary working directory that
holds the generated region problems and the channel-bank and direction
files, so file arguments (which the ``run`` record embeds) are the same
relative names on every machine.
For each command the manifest keeps the exit code, the sha256 of its
``--out`` file (null when none was written) and the sha256 of its stdout
without the run-varying ``elapsed`` line.

    python tests/golden/golden.py --check     # compare against manifest.json
    python tests/golden/golden.py --update    # re-record manifest.json

Float bits may differ across numpy versions, so the manifest records the
numpy version it was made with; ``--check`` says so when they differ.
A change that alters outputs on purpose re-records with ``--update`` and
lists the changed commands in CHANGES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = HERE / "manifest.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

from canonical_region import cli, save_problem  # noqa: E402
from conftest import region_problem_spec  # noqa: E402

REGION_SEEDS = (1, 2, 3, 4, 5)
REGION_SOURCES = (4, 5, 6)
BUNDLED = ("helper3", "dsbs", "bwz")
TRACE_SEEDS = (1, 2, 3, 4)
OUT = "out.jsonl"


def region_files(directory: Path) -> list[tuple[str, int]]:
    """Write the benchmark's region problems: (name relative to ``directory``, seed)."""
    refs = []
    for seed in REGION_SEEDS:
        for m in REGION_SOURCES:
            name = f"region-m{m}-seed{seed}.json"
            save_problem(region_problem_spec(seed, m), directory / name)
            refs.append((name, seed))
    return refs


# channel banks and directions for the --channels and --directions readers; the
# helper3 bank gives slot 3 a third output symbol
INPUT_FILES = {
    "bank-helper3.json": {"channels": [
        {"slot": 3, "rows": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]},
        {"slot": 2, "rows": [[0.9, 0.1], [0.25, 0.75]]},
    ]},
    "bank-dsbs.json": {"channels": [
        {"slot": 1, "rows": [[0.8, 0.2], [0.3, 0.7]]},
        {"slot": 2, "rows": [[0.6, 0.4], [0.05, 0.95]]},
    ]},
    "dirs-dsbs.json": {"directions": [
        {"rates": [1, 1], "distortions": [15]},
        {"rates": [0.5, 2], "distortions": [6]},
    ]},
    "dirs-bwz.json": {"directions": [
        {"rates": [1], "distortions": [3]},
        {"rates": [2], "distortions": [1]},
    ]},
}
# dsbs with a dense "probs" source, and two copies whose declared sizes disagree
# with the data: "l" with the number of tables, "Vhat" with a table's columns
DSBS_DENSE = {
    "m": 2, "j": 0, "l": 1,
    "alphabets": {"X": [2, 2], "S": 1, "V": 2, "Vhat": [2]},
    "source": {"probs": [[[["0.45", 0]], [[0, "0.05"]]], [[[0, "0.05"]], [["0.45", 0]]]]},
    "distortions": [[[0, 1], [1, 0]]],
}
INPUT_FILES |= {
    "dsbs-dense.json": DSBS_DENSE,
    "dsbs-l2.json": {**DSBS_DENSE, "l": 2},
    "dsbs-vhat3.json": {**DSBS_DENSE, "alphabets": {**DSBS_DENSE["alphabets"], "Vhat": [3]}},
}


def input_files(directory: Path) -> None:
    for name, data in INPUT_FILES.items():
        (directory / name).write_text(json.dumps(data))


def commands(region: list[tuple[str, int]]) -> list[list[str]]:
    """Region problems run with their own seed as channel seed, bundled ones with the default."""
    cmds = []
    for ref, seed in [(ref, ["--seed", str(s)]) for ref, s in region] + [(b, []) for b in BUNDLED]:
        cmds += [
            ["extreme-points", ref, *seed],
            ["verify", "noncrossing", ref, "--samples", "50", *seed],
            ["verify", "identities", ref, *seed],
            ["verify", "identities", ref, "--tol", "0", "--trials", "20", *seed],
        ]
    for seed in TRACE_SEEDS:
        cmds += [
            ["trace", "helper3", "--count", "4", "--seed", str(seed)],
            ["trace", "bwz", "--count", "4", "--seed", str(seed)],
            ["trace", "dsbs", "--count", "2", "--seed", str(seed)],
        ]
    cmds += [
        ["trace", "bwz", "--sweep", "9", "--seed", "42"],
        ["trace", "helper3", "--count", "4", "--seed", "23"],
        ["trace", "bwz", "--count", "4", "--seed", "1059401219"],
        ["trace", "dsbs", "--count", "2", "--perm", "2,1"],
        ["verify", "alphabet-bound", "dsbs", "--grid", "3", "--trials", "1", "--seed", "3"],
        ["verify", "alphabet-bound", "bwz", "--grid", "14", "--trials", "1", "--seed", "3"],
    ]
    cmds += [["verify", "decomposition", ref] for ref in BUNDLED]
    cmds += [
        ["extreme-points", "helper3", "--channels", "bank-helper3.json"],
        ["verify", "identities", "dsbs", "--channels", "bank-dsbs.json", "--trials", "20"],
        # M = 2 and one trial: its first assignment lacks I or I' and is redrawn
        ["verify", "identities", "dsbs", "--trials", "1"],
        ["verify", "identities", "region-m6-seed1.json", "--trials", "2000", "--seed", "1"],
        ["trace", "dsbs", "--directions", "dirs-dsbs.json"],
        ["verify", "alphabet-bound", "bwz", "--directions", "dirs-bwz.json", "--grid", "6"],
        ["extreme-points", "dsbs-dense.json"],
        ["trace", "dsbs-dense.json", "--count", "2"],
    ]
    # a failing run of every suite and of extreme-points: identities fails above at
    # --tol 0; these dump the decomposition draws, the noncrossing corners and
    # members, the corners round-off leaves outside the region at --tol 0, a
    # direction, and the corners whose tight groups are not their suffixes
    cmds += [
        ["extreme-points", "helper3", "--tol", "0"],
        ["verify", "decomposition", "dsbs", "--tol", "0", "--trials", "3"],
        ["verify", "noncrossing", "helper3", "--tol", "10", "--samples", "3"],
        ["verify", "noncrossing", "dsbs", "--tol", "0"],
        ["verify", "alphabet-bound", "dsbs", "--grid", "3", "--trials", "1", "--tol", "0",
         "--seed", "3"],
    ]
    cmds += [
        ["trace", "dsbs", "--count", "0"],
        ["extreme-points", "no-such-problem"],
        ["extreme-points", "dsbs-l2.json"],
        ["extreme-points", "dsbs-vhat3.json"],
        ["verify", "decomposition", "dsbs", "--channels", "bank-dsbs.json"],
        ["verify", "decomposition", "dsbs", "--directions", "dirs-dsbs.json"],
        ["verify", "alphabet-bound", "dsbs", "--channels", "bank-dsbs.json"],
        ["verify", "identities", "dsbs", "--directions", "dirs-dsbs.json"],
        ["verify", "noncrossing", "dsbs", "--directions", "dirs-dsbs.json"],
        ["trace", "dsbs", "--directions", "dirs-dsbs.json", "--count", "1"],
        ["trace", "bwz", "--sweep", "9", "--count", "5"],
        ["verify", "noncrossing", "dsbs", "--trials", "0"],
        ["verify", "identities", "dsbs", "--grid", "0"],
        ["verify", "decomposition", "dsbs", "--samples", "5"],
        ["verify", "alphabet-bound", "dsbs", "--sweeps", "0"],
        ["extreme-points", "helper3", "--channels", "bank-helper3.json", "--seed", "3"],
    ]
    return cmds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(argv: list[str]) -> dict:
    """Run one command in the current directory; its exit code and digests."""
    out = Path(OUT)
    if out.exists():
        out.unlink()
    buf = io.StringIO()
    with (contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore")
        try:
            code = cli.main([*argv, "--out", OUT])
        except Exception:   # the console script would exit 1 with this traceback
            code, crash = 1, traceback.format_exc()
        else:
            crash = None
    if crash is not None:
        print(f"{' '.join(argv)} raised:\n{crash}", file=sys.stderr)
    stdout = "".join(line for line in buf.getvalue().splitlines(keepends=True)
                     if not line.startswith("elapsed "))
    return {
        "argv": argv,
        "exit": code,
        "out_sha256": _sha256(out.read_bytes()) if out.exists() else None,
        "stdout_sha256": _sha256(stdout.encode()),
    }


def record() -> list[dict]:
    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        input_files(Path(tmp))
        try:
            return [run_one(argv) for argv in commands(region_files(Path(tmp)))]
        finally:
            os.chdir(old_cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare against the manifest")
    mode.add_argument("--update", action="store_true", help="re-record the manifest")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    results = record()
    elapsed = time.perf_counter() - start
    if args.update:
        MANIFEST.write_text(json.dumps(
            {"numpy": np.__version__, "commands": results}, indent=1) + "\n")
        print(f"recorded {len(results)} commands in {elapsed:.1f}s")
        return 0

    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy"] != np.__version__:
        print(f"note: manifest recorded with numpy {manifest['numpy']}, "
              f"running {np.__version__}")
    expected = {tuple(e["argv"]): e for e in manifest["commands"]}
    got = {tuple(e["argv"]): e for e in results}
    differing = 0
    for key in sorted(expected.keys() | got.keys()):
        want, have = expected.get(key), got.get(key)
        if want != have:
            differing += 1
            fields = ("missing from the run" if have is None
                      else "not in the manifest" if want is None
                      else ", ".join(f for f in ("exit", "out_sha256", "stdout_sha256")
                                     if want[f] != have[f]))
            print(f"DIFF {' '.join(key)}: {fields}")
    print(f"{differing} of {len(expected)} commands differ ({elapsed:.1f}s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
