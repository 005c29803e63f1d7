"""Self-tests of the benchmark.  Run from the checkout root::

    python3 -m pytest perfbench
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import tracer
import workloads
from canonical_region import cli, resolve_problem
from canonical_region.functionals import FunctionalContext
from canonical_region.pmf import JointPmf
from wyner_ziv import P0, binary_entropy, wz_curve, wz_optimum

H_QUARTER = 0.8112781244591328   # h(1/4) = H(X|S) for bwz, in bits


def _cli(argv, out_path):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--out", str(out_path)])
    return code, out_path.read_bytes()


def _records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode().splitlines()]


def test_same_seed_gives_byte_identical_problem_files(tmp_path):
    region = workloads.WORKLOADS["region"]
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.setup(region, seed, tmp_path / name)
    for m in workloads.REGION_SOURCES:
        file = f"region-m{m}.json"
        same = (tmp_path / "a" / file).read_bytes()
        assert same == (tmp_path / "b" / file).read_bytes()
        assert same != (tmp_path / "c" / file).read_bytes()


def _attributes():
    seen = {}
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            if not key.startswith("__"):
                seen[(mod.__name__, key)] = value
    for cls in (JointPmf, FunctionalContext):
        for key, value in vars(cls).items():
            seen[(cls.__qualname__, key)] = value
    return seen


def test_tracing_leaves_no_patched_attribute_behind(tmp_path):
    before = _attributes()
    spans = tracer.Tracer()
    with spans.installed():
        assert cli.main is not before[("canonical_region.cli", "main")]
        assert JointPmf.__init__ is not before[("JointPmf", "__init__")]
        code, _ = _cli(("trace", "bwz", "--count", "1"), tmp_path / "out.jsonl")
    assert code == 0
    assert len(spans.span_start) > 0
    with pytest.raises(RuntimeError), spans.installed():
        raise RuntimeError("an operation failed while traced")
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("argv", [
    ("trace", "helper3", "--count", "1", "--seed", "3"),
    ("verify", "alphabet-bound", "bwz", "--grid", "6", "--seed", "3"),
    ("extreme-points", "{m4}", "--seed", "3"),
    ("verify", "identities", "{m4}", "--seed", "3", "--trials", "20"),
])
def test_traced_op_writes_same_out_bytes(tmp_path, argv):
    problem = tmp_path / "m4.json"
    problem.write_text(workloads.region_problem_text(5, 4))
    argv = [a.format(m4=problem) for a in argv]
    plain = _cli(argv, tmp_path / "plain.jsonl")
    spans = tracer.Tracer()
    with spans.installed():
        traced = _cli(argv, tmp_path / "traced.jsonl")
    assert plain == traced
    calls = {name: count for name, (count, _) in spans.self_times().items()}
    assert calls["cli.main"] == 1


def test_wyner_ziv_reference_known_points():
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)
    assert wz_curve(0.0) == pytest.approx(H_QUARTER, abs=1e-15)   # R(0) = H(X|S)
    assert wz_optimum(1.0, 0.0) == 0.0                 # rate only: D = P0 at rate 0
    assert wz_optimum(0.0, 1.0) == 0.0                 # distortion only: D = 0
    for a, b in ((0.2, 0.98), (0.5, 0.5), (0.9, 0.3), (1.0, 4.0)):
        d = np.linspace(0.0, P0, 1_000_001)
        pd = P0 * (1 - d) + d * (1 - P0)

        def h(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.nan_to_num(-p * np.log2(p) - (1 - p) * np.log2(1 - p))

        dense = min(float((a * (h(pd) - h(d)) + b * d).min()), b * P0)
        assert wz_optimum(a, b) <= dense + 1e-12
        assert wz_optimum(a, b) == pytest.approx(dense, abs=1e-9)


def test_sweep_meets_wyner_ziv_reference(tmp_path):
    code, data = _cli(("trace", "bwz", "--sweep", "9"), tmp_path / "out.jsonl")
    assert code == 0
    points = [r for r in _records(data) if r["type"] == "trace-point"]
    pure_distortion = points[-1]
    assert pure_distortion["direction"]["rates"][0] == pytest.approx(0.0, abs=1e-12)
    assert pure_distortion["rates"][0] == pytest.approx(H_QUARTER, abs=1e-9)
    for point in points:
        a = point["direction"]["rates"][0]
        b = point["direction"]["distortions"][0]
        assert point["objective"] >= wz_optimum(a, b) - workloads.WZ_TOL


def test_checks_catch_wrong_outputs(tmp_path):
    op = workloads.Op(("trace", "bwz", "--count", "2", "--seed", "1"), "bwz")
    code, data = _cli(op.argv, tmp_path / "out.jsonl")
    spec = resolve_problem("bwz")
    assert not workloads.check(op, code, _records(data), spec).failed

    off = _records(data)
    off[1]["objective"] += 1e-6
    assert workloads.check(op, code, off, spec).problems

    below = _records(data)
    point = below[1]
    optimum = wz_optimum(point["direction"]["rates"][0], point["direction"]["distortions"][0])
    point["objective"] = optimum - 1e-6
    point["rates"] = [0.0]
    point["distortions"] = [point["objective"] / point["direction"]["distortions"][0]]
    problems = workloads.check(op, code, below, spec).problems
    assert any("below the Wyner-Ziv optimum" in p for p in problems)

    assert workloads.check(op, 2, None, spec).problems


def test_extreme_points_check_counts_m_factorial_corners(tmp_path):
    problem = tmp_path / "m4.json"
    problem.write_text(workloads.region_problem_text(5, 4))
    op = workloads.Op(("extreme-points", str(problem), "--seed", "3"), str(problem))
    code, data = _cli(op.argv, tmp_path / "out.jsonl")
    spec = resolve_problem(str(problem))
    checked = workloads.check(op, code, _records(data), spec)
    assert checked.items == math.factorial(4) and not checked.problems
    dropped = [r for r in _records(data) if r["type"] != "corner" or r["perm"] != [1, 2, 3, 4]]
    assert workloads.check(op, code, dropped, spec).problems
