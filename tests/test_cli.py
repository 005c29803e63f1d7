from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import canonical_region
from canonical_region import (
    BudgetError,
    DegeneracyWarning,
    InputError,
    NumericIntegrityError,
    PreconditionError,
    ProblemSpec,
    bundled_problem_path,
    list_bundled_problems,
    load_channels,
    load_directions,
    load_problem,
    attach_channels,
    enumerate_extreme_points,
    membership,
    nondegeneracy_report,
    random_channels,
    rate_lhs,
    resolve_problem,
    save_problem,
    solve_equality_lp,
    verify_chain_identities,
)
from canonical_region import optimize
from canonical_region.cli import build_parser, main
from conftest import (
    expected_active_groups,
    make_spec,
    markov_source_spec,
    product_source_spec,
    region_problem_spec,
    spec_equals,
)


def write_problem(tmp_path, fname="prob.json", **over):
    data = {
        "m": 1, "j": 0, "l": 1,
        "alphabets": {"X": [2], "S": 1, "V": 2, "Vhat": [2]},
        "source": {"probs": [[[0.25, 0.25]], [[0.25, 0.25]]]},
        "distortions": [[[0.0, 1.0], [1.0, 0.0]]],
    }
    data.update(over)
    p = tmp_path / fname
    p.write_text(json.dumps(data))
    return p


# ---- problem files ----------------------------------------------------------


def test_bundled_problems():
    assert list_bundled_problems() == ["bwz", "dsbs", "helper3"]
    assert bundled_problem_path("dsbs").is_file()
    with pytest.raises(InputError):
        bundled_problem_path("nope")
    spec = resolve_problem("bwz")
    assert (spec.m, spec.j, spec.l) == (1, 0, 1)
    with pytest.raises(InputError):
        resolve_problem("definitely-not-here")


def test_bundled_shapes():
    dsbs = resolve_problem("dsbs")
    assert (dsbs.m, dsbs.j, dsbs.l) == (2, 0, 1)
    assert dsbs.source_fractions.count(Fraction(9, 20)) == 2
    helper3 = resolve_problem("helper3")
    assert (helper3.m, helper3.j, helper3.l) == (3, 1, 1)
    assert sum(helper3.source_fractions) == 1


def test_mass_policy(tmp_path):
    bad = write_problem(tmp_path, "bad.json",
                        source={"probs": [[[0.2, 0.2]], [[0.25, 0.25]]]})
    with pytest.raises(InputError):
        load_problem(bad)

    slightly = write_problem(
        tmp_path, "slight.json",
        source={"probs": [[["0.25000001", 0.25]], [[0.25, 0.25]]]},
    )
    with pytest.warns(UserWarning, match="renormalizing"):
        spec = load_problem(slightly)
    assert sum(spec.source_fractions) == 1

    tiny = write_problem(
        tmp_path, "tiny.json",
        source={"probs": [[["0.2500000000001", 0.25]], [[0.25, 0.25]]]},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = load_problem(tiny)
    assert sum(spec.source_fractions) == 1


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "nojson.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        load_problem(p)
    with pytest.raises(InputError):
        load_problem(tmp_path / "missing.json")
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, extra_key=1))
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, m=True))
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, j=2))
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, alphabets={"X": [2], "S": 1, "V": 2}))
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path, source={"probs": [[[0.5, 0.5]]]},
        ))
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path, source={"probs": [[[0.5, "x"]], [[0.0, 0.5]]]},
        ))
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path, source={"probs": [[[0.5, -0.1]], [[0.3, 0.3]]]},
        ))
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, source={}))
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"probs": [[[0.5, 0.5]], [[0.0, 0.0]]],
                    "entries": [{"symbols": [0, 0, 0], "p": 1}]},
        ))
    with pytest.raises(InputError):
        load_problem(write_problem(tmp_path, distortions=[]))


def test_load_refuses_an_oversized_source_tensor(tmp_path, capsys):
    # 2^64 cells: the cell count overflows int64, so it must be counted exactly
    path = write_problem(
        tmp_path, "wide.json", m=64, l=0,
        alphabets={"X": [2] * 64, "S": 1, "V": 1, "Vhat": []},
        source={"entries": [{"symbols": [0] * 66, "p": 1}]}, distortions=[],
    )
    with pytest.raises(BudgetError, match="18446744073709551616 cells"):
        load_problem(path)
    assert main(["extreme-points", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def _one_line_error(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return err


_READERS = [
    pytest.param(lambda path: ["extreme-points", path], id="problem"),
    pytest.param(lambda path: ["extreme-points", "bwz", "--channels", path], id="channels"),
    pytest.param(lambda path: ["trace", "bwz", "--directions", path], id="directions"),
]


@pytest.mark.parametrize("argv", _READERS)
@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="utf16-bom"),
    pytest.param(b"[" * 100_000, id="nested-100000"),
    pytest.param(b"[" + b"1" * 5000 + b"]", id="int-5000-digits"),   # past int's str limit
])
def test_cli_refuses_an_unparsable_file_on_one_line(tmp_path, capsys, argv, content):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    err = _one_line_error(capsys, argv(str(path)), 2)
    assert err.startswith("error: ") and str(path) in err, err


def test_cli_refuses_a_source_mass_past_the_float_range(tmp_path, capsys):
    path = write_problem(
        tmp_path, l=0, alphabets={"X": [1], "S": 1, "V": 1, "Vhat": []},
        source={"entries": [{"symbols": [0, 0, 0], "p": "1e400"}]}, distortions=[],
    )
    err = _one_line_error(capsys, ["extreme-points", str(path)], 2)
    assert err.startswith("error: source probabilities sum to"), err


@pytest.mark.parametrize("m, argv", [
    (33, ["trace", "--count", "1", "--restarts", "1"]),
    (33, ["extreme-points"]),
    (33, ["verify", "identities"]),
    (70, ["verify", "decomposition"]),
])
def test_cli_refuses_a_layout_past_the_axis_limit(tmp_path, capsys, m, argv):
    # X1..XM, S, V and Z1..ZM: 2M + 2 axes of the augmented joint when J = 0
    path = write_problem(
        tmp_path, m=m, l=0, alphabets={"X": [1] * m, "S": 1, "V": 1, "Vhat": []},
        source={"entries": [{"symbols": [0] * (m + 2), "p": 1}]}, distortions=[],
    )
    err = _one_line_error(capsys, [*argv, str(path)], 3)
    assert f"{2 * m + 2} joint axes (> 63)" in err, err


def test_spec_refuses_a_layout_past_the_axis_limit():
    with pytest.raises(BudgetError, match="64 joint axes"):
        ProblemSpec(0, np.ones((1,) * 31 + (1, 1)), [])
    assert ProblemSpec(1, np.ones((1,) * 31 + (1, 1)), []).m == 31


@pytest.mark.parametrize("table", [
    [[True, False], [False, True]],
    [[0, 1], ["1", 0]],
    [[0, 1], [1, None]],
])
def test_load_rejects_non_numeric_distortions(tmp_path, table):
    path = write_problem(tmp_path, distortions=[table])
    with pytest.raises(InputError, match="must be a number"):
        load_problem(path)
    assert main(["extreme-points", str(path)]) == 2


def test_sparse_entries(tmp_path):
    p = write_problem(
        tmp_path,
        source={"entries": [
            {"symbols": [0, 0, 0], "p": "1/3"},
            {"symbols": [1, 0, 1], "p": "2/3"},
        ]},
    )
    spec = load_problem(p)
    assert spec.source_fractions[0] == Fraction(1, 3)
    assert spec.source_fractions[3] == Fraction(2, 3)
    # duplicate cell
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"entries": [
                {"symbols": [0, 0, 0], "p": 0.5},
                {"symbols": [0, 0, 0], "p": 0.5},
            ]},
        ))
    # symbol outside the alphabet
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"entries": [{"symbols": [0, 0, 2], "p": 1}]},
        ))
    # wrong arity
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"entries": [{"symbols": [0, 0], "p": 1}]},
        ))
    # stray keys
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"entries": [{"symbols": [0, 0, 0], "p": 1, "q": 2}]},
        ))
    # unparseable fraction
    with pytest.raises(InputError):
        load_problem(write_problem(
            tmp_path,
            source={"entries": [{"symbols": [0, 0, 0], "p": "1/0"}]},
        ))


def test_save_load_round_trip(tmp_path):
    for name in list_bundled_problems():
        spec = resolve_problem(name)
        target = tmp_path / f"{name}-copy.json"
        save_problem(spec, target)
        again = load_problem(target)
        assert spec_equals(spec, again)
    rng = np.random.default_rng(100)
    spec = make_spec(rng, m=2, j=1, l=2, name="round-trip")
    target = tmp_path / "random.json"
    save_problem(spec, target)
    assert spec_equals(spec, load_problem(target))


def test_load_channels_files(tmp_path, dsbs):
    good = tmp_path / "chan.json"
    good.write_text(json.dumps({"channels": [
        {"slot": 2, "rows": [[0.5, 0.5], [0.2, 0.8]]},
        {"slot": 1, "rows": [[1.0, 0.0], [0.0, 1.0]]},
    ]}))
    chans = load_channels(good, dsbs)
    assert np.array_equal(chans[0].rows, np.eye(2))   # reordered to slot order
    assert chans[1].rows.shape[-1] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"channels": [{"slot": 1, "rows": [[1.0, 0.0]]}]}))
    with pytest.raises(InputError):
        load_channels(bad, dsbs)                      # missing slot 2
    bad.write_text(json.dumps({"channels": [
        {"slot": 1, "rows": [[1, 0], [0, 1]]},
        {"slot": 1, "rows": [[1, 0], [0, 1]]},
    ]}))
    with pytest.raises(InputError):
        load_channels(bad, dsbs)                      # duplicate slot
    bad.write_text(json.dumps({"channels": [
        {"slot": 1, "rows": [[1, 0], [0, 1]]},
        {"slot": 2, "rows": [[0.7, 0.6], [0, 1]]},
    ]}))
    with pytest.raises(InputError):
        load_channels(bad, dsbs)                      # rows not stochastic
    bad.write_text(json.dumps({"banks": []}))
    with pytest.raises(InputError):
        load_channels(bad, dsbs)


def test_load_channels_rejects_non_numeric_rows(tmp_path, dsbs):
    path = tmp_path / "chan.json"
    for rows in ([[True, False], ["0", "1"]], [[True, False], [False, True]], [[1, 0], "01"]):
        path.write_text(json.dumps({"channels": [
            {"slot": 1, "rows": [[1.0, 0.0], [0.0, 1.0]]},
            {"slot": 2, "rows": rows},
        ]}))
        with pytest.raises(InputError, match="must be a number"):
            load_channels(path, dsbs)
        assert main(["extreme-points", "dsbs", "--channels", str(path)]) == 2


def test_load_directions_files(tmp_path, dsbs):
    good = tmp_path / "dirs.json"
    good.write_text(json.dumps({"directions": [
        {"rates": [1, 1], "distortions": [1]},
        {"rates": [0, 0], "distortions": [2]},
    ]}))
    dirs = load_directions(good, dsbs)
    assert len(dirs) == 2
    assert abs(np.linalg.norm(dirs[0].coords) - 1.0) < 1e-12
    assert dirs[1].distortion_weight(1) == 1.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"directions": []}))
    with pytest.raises(InputError):
        load_directions(bad, dsbs)
    bad.write_text(json.dumps({"directions": [{"rates": [1, 1]}]}))
    with pytest.raises(InputError):
        load_directions(bad, dsbs)
    bad.write_text(json.dumps({"directions": [
        {"rates": [1], "distortions": [1]},
    ]}))
    with pytest.raises(InputError):
        load_directions(bad, dsbs)                    # wrong coordinate count
    bad.write_text(json.dumps({"directions": [
        {"rates": [-1, 0], "distortions": [1]},
    ]}))
    with pytest.raises(InputError):
        load_directions(bad, dsbs)


def test_load_directions_rejects_non_numeric_weights(tmp_path, bwz):
    path = tmp_path / "dirs.json"
    for item in ({"rates": [True], "distortions": ["2"]}, {"rates": [1], "distortions": ["2"]},
                 {"rates": [False], "distortions": [1]}):
        path.write_text(json.dumps({"directions": [item]}))
        with pytest.raises(InputError, match="must be a number"):
            load_directions(path, bwz)
        assert main(["trace", "bwz", "--directions", str(path)]) == 2


# ---- command line -----------------------------------------------------------


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_cli_extreme_points_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["extreme-points", "helper3", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["extreme-points", "helper3", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stdout = capsys.readouterr().out
    assert "6 corner(s), smallest separation" in stdout
    assert "elapsed" in stdout

    records = read_records(out1)
    assert set(records[0]) == {"type", "command", "problem", "name", "m", "j", "l", "params"}
    corners = [r for r in records if r["type"] == "corner"]
    assert len(corners) == 6
    for r in corners:
        assert set(r) == {"type", "perm", "rates", "sum_rate", "member", "active", "ok"}
        assert r["ok"] and r["member"]
    summary = records[-1]
    assert set(summary) == {
        "type", "command", "passed", "corners", "degenerate",
        "sum_rate_spread", "full_group_information",
    }
    assert summary["passed"] and summary["degenerate"] is False
    assert summary["sum_rate_spread"] <= 1e-9


@pytest.mark.parametrize("m", [4, 5, 6])
def test_cli_extreme_points_passes_closely_spaced_corners(tmp_path, m):
    # the closest corners here lie 1.6e-7 to 6.6e-7 apart: distinct and nondegenerate
    path = tmp_path / "region.json"
    save_problem(region_problem_spec(1, m), path)
    out = tmp_path / "c.jsonl"
    assert main(["extreme-points", str(path), "--seed", "1", "--out", str(out)]) == 0
    corners = [r for r in read_records(out) if r["type"] == "corner"]
    assert len(corners) == math.factorial(m) and all(r["ok"] for r in corners)


def independent_sources_spec(m):
    """M independent binary sources with V their parity and a trivial S:
    every corner coincides, so the instance is degenerate."""
    rng = np.random.default_rng(40 + m)
    probs = np.zeros((2,) * m + (1, 2))
    marginals = rng.dirichlet(np.ones(2), size=m)
    for xs in itertools.product(range(2), repeat=m):
        probs[xs + (0, sum(xs) % 2)] = math.prod(marginals[i, x] for i, x in enumerate(xs))
    return ProblemSpec(0, probs, [[[0.0, 1.0], [1.0, 0.0]]])


def reference_corner_output(aug, tol):
    """The corner records and stdout lines of extreme-points' old per-corner loop."""
    points = enumerate_extreme_points(aug)
    degenerate = nondegeneracy_report(aug).degenerate
    full_info = rate_lhs(aug, range(1, aug.m + 1))
    report = membership(aug, np.array([rates for _, rates in points]), tol)
    records, lines = [], []
    for (perm, rates), member, groups in zip(points, report.is_member, report.active_groups):
        expected = set(expected_active_groups(perm))
        active = set(groups)
        ok = bool(member) and expected <= active
        if not degenerate:
            ok = ok and active == expected
        total = float(rates.sum())
        ok = ok and abs(total - full_info) <= tol
        records.append({"type": "corner", "perm": list(perm), "rates": rates.tolist(),
                        "sum_rate": total, "member": bool(member),
                        "active": sorted(sorted(g) for g in active), "ok": ok})
        shown = " ".join(f"{float(r):.6f}" for r in rates)
        lines.append(f"corner {list(perm)}: rates=[{shown}] sum={total:.6f} "
                     f"member={bool(member)} ok={ok}")
    return records, lines


@pytest.mark.parametrize("problem, seed, tol", [
    ("independent-2", "5", "1e-09"),
    ("independent-3", "5", "1e-09"),
    ("independent-3", "5", "0"),
    ("independent-3", "3", "5e-16"),
    ("helper3", "5", "1e-09"),
    ("helper3", "5", "0"),
])
def test_cli_extreme_points_matches_the_per_corner_reference(tmp_path, capsys, problem,
                                                            seed, tol):
    # Degenerate corners have more tight groups than their suffixes.  tol 0
    # leaves corners outside the region, and at 5e-16 one member corner of
    # the right sum misses a suffix group, so every check decides some corner.
    if problem == "helper3":
        spec = resolve_problem(problem)
    else:
        spec = independent_sources_spec(int(problem[-1]))
        problem = str(tmp_path / "independent.json")
        save_problem(spec, problem)
    out = tmp_path / "c.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the independent sources warn on load
        code = main(["extreme-points", problem, "--seed", seed, "--tol", tol, "--out", str(out)])
    aug = attach_channels(spec, random_channels(spec, np.random.default_rng(int(seed))))
    records, lines = reference_corner_output(aug, float(tol))
    assert nondegeneracy_report(aug).degenerate == (problem != "helper3")
    assert [r for r in read_records(out) if r["type"] == "corner"] == records
    assert capsys.readouterr().out.splitlines()[:len(lines)] == lines
    assert code == (0 if all(r["ok"] for r in records) else 1)


def test_cli_extreme_points_channels_file(tmp_path, dsbs):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"channels": [
        {"slot": 1, "rows": [[0.9, 0.1], [0.2, 0.8]]},
        {"slot": 2, "rows": [[0.7, 0.3], [0.1, 0.9]]},
    ]}))
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["extreme-points", "dsbs", "--channels", str(chan),
                 "--out", str(out1)]) == 0
    assert main(["extreme-points", "dsbs", "--channels", str(chan),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["extreme-points", "dsbs", "--channels",
                 str(tmp_path / "nope.json")]) == 2


def test_cli_verify_identities(tmp_path):
    out = tmp_path / "v.jsonl"
    assert main(["verify", "identities", "dsbs", "--trials", "40",
                 "--out", str(out)]) == 0
    records = read_records(out)
    checks = [r for r in records if r["type"] == "check"]
    assert len(checks) == 7
    for r in checks:
        assert set(r) == {"type", "suite", "name", "passed", "detail"}
        assert r["passed"]
        assert set(r["detail"]) == {"trials", "worst_violation"}
    assert records[-1] == {
        "type": "summary", "command": "verify", "suite": "identities", "passed": True,
    }


def test_cli_identity_trials_draw_from_their_own_stream(tmp_path, helper3):
    # the bank comes from default_rng(seed) and the trials from (seed, 2), so
    # the trials do not replay the bits that drew the bank
    out = tmp_path / "v.jsonl"
    aug = attach_channels(helper3, random_channels(helper3, np.random.default_rng(4)))
    report = verify_chain_identities(aug, trials=30, tol=0.0, seed=(4, 2))
    assert main(["verify", "identities", "helper3", "--trials", "30", "--tol", "0",
                 "--seed", "4", "--out", str(out)]) == (0 if report.passed else 1)
    checks = [r for r in read_records(out) if r["type"] == "check"]
    assert [[r["name"], r["passed"], r["detail"]["trials"], r["detail"]["worst_violation"],
             r["detail"].get("failures", [])] for r in checks] == json.loads(json.dumps([
        (c.name, c.passed, c.trials, c.worst_violation, [dict(f) for f in c.failures[:5]])
        for c in report.checks]))
    assert any(c.failures for c in report.checks)   # tol 0 leaves failures to compare
    assert verify_chain_identities(aug, trials=30, tol=0.0, seed=4).checks != report.checks


def test_cli_verify_noncrossing(tmp_path):
    assert main(["verify", "noncrossing", "dsbs", "--samples", "10"]) == 0


@pytest.mark.parametrize("problem, seed", [("dsbs", 42), ("helper3", 42), ("helper3", 5)])
def test_cli_noncrossing_fails_a_corner_outside_the_region(tmp_path, capsys, problem, seed):
    # at --tol 0 round-off leaves some corners a few ulp outside the region:
    # each is a failing check carrying its worst slack, not an input error
    out = tmp_path / "out.jsonl"
    assert main(["verify", "noncrossing", problem, "--tol", "0", "--samples", "0",
                 "--seed", str(seed), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "error" not in printed.err
    spec = resolve_problem(problem)
    aug = attach_channels(spec, random_channels(spec, np.random.default_rng(seed)))
    report = membership(aug, np.array([r for _, r in enumerate_extreme_points(aug)]), 0.0)
    outside = ~report.is_member
    assert outside.any()
    # stdout names the cause, apart from the chain verdict
    assert (f"{outside.sum()} of {outside.size} outside the region at tol 0 "
            f"(worst slack {report.slack.min():.3e})") in printed.out
    checks = [r for r in read_records(out) if r["type"] == "check"]
    assert [r["detail"].get("worst_slack") for r in checks] == [
        worst if out else None for out, worst in zip(outside, report.slack.min(axis=1))]
    assert not any(r["passed"] for r, out in zip(checks, outside) if out)


def test_cli_noncrossing_builds_one_report_per_rate_stack(monkeypatch):
    # the chain test reads the membership report the suite already holds, so the
    # corners and the random members are each one report, with no second one
    # built for the rows inside the region
    reports = []
    build = canonical_region.region.membership

    def counting(aug, rates, tol):
        reports.append(len(rates))
        return build(aug, rates, tol)

    monkeypatch.setattr(canonical_region.cli, "membership", counting)
    monkeypatch.setattr(canonical_region.region, "membership", counting)
    assert main(["verify", "noncrossing", "helper3", "--samples", "7"]) == 0
    assert reports == [6, 7]


def test_cli_verify_noncrossing_accepts_a_degenerate_source(tmp_path):
    # independent sources share every corner, where {1} and {2} are both tight
    path = tmp_path / "product.json"
    save_problem(product_source_spec(np.random.default_rng(39)), path)
    with pytest.warns(canonical_region.DegeneracyWarning):
        assert main(["verify", "noncrossing", str(path), "--samples", "5"]) == 0


def test_load_problem_warns_on_independent_sources(tmp_path):
    product = tmp_path / "product.json"
    save_problem(product_source_spec(np.random.default_rng(39)), product)
    with pytest.warns(canonical_region.DegeneracyWarning,
                      match="sources X1 and X2 are nearly independent given S"):
        load_problem(product)
    markov = tmp_path / "markov.json"
    save_problem(markov_source_spec(), markov)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_problem(markov)


def test_cli_verify_decomposition_pass_and_fail(tmp_path):
    out = tmp_path / "d.jsonl"
    assert main(["verify", "decomposition", "dsbs", "--trials", "5",
                 "--out", str(out)]) == 0
    # an absurd tolerance turns float dust into a reported failure
    fail_out = tmp_path / "f.jsonl"
    code = main(["verify", "decomposition", "helper3", "--trials", "3",
                 "--tol", "1e-18", "--out", str(fail_out)])
    assert code == 1
    records = read_records(fail_out)
    failing = [r for r in records if r["type"] == "check" and not r["passed"]]
    assert failing
    # counterexample dump carries the channels and the direction
    assert {"worst_error", "channels", "direction"} <= set(failing[0]["detail"])
    assert records[-1]["passed"] is False


def test_cli_decomposition_refuses_a_problem_without_channel_slots(tmp_path, capsys):
    # J = M: every source is lossless, so no draw would check anything
    path = tmp_path / "lossless.json"
    save_problem(make_spec(np.random.default_rng(5), m=2, j=2, l=1), path)
    out = tmp_path / "d.jsonl"
    assert main(["verify", "decomposition", str(path), "--out", str(out)]) == 2
    assert "vacuous without channel slots" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_alphabet_bound(tmp_path):
    out = tmp_path / "ab.jsonl"
    assert main(["verify", "alphabet-bound", "bwz", "--grid", "8",
                 "--trials", "2", "--restarts", "2", "--sweeps", "10",
                 "--out", str(out)]) == 0
    records = read_records(out)
    checks = [r for r in records if r["type"] == "check"]
    assert len(checks) == 2
    for r in checks:
        assert set(r["detail"]) == {
            "capped_value", "capped_lattice_value", "enlarged_value", "margin",
            "capped_grid", "enlarged_grid",
        }
        assert r["detail"]["capped_grid"] == 8
        assert r["detail"]["enlarged_grid"] == 8
        assert r["passed"]


def test_cli_alphabet_bound_rejects_nonpositive_grid(capsys):
    for grid in ("0", "-3"):
        assert main(["verify", "alphabet-bound", "bwz", "--grid", grid]) == 2
        assert f"argument --grid: must be >= 1, got {grid}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "alphabet-bound", "dsbs", "--trials", "0"],
    ["verify", "alphabet-bound", "dsbs", "--trials", "-2"],
    ["trace", "bwz", "--count", "0"],
])
def test_cli_random_direction_counts_name_their_flag(argv, capsys):
    assert main(argv) == 2
    assert f"argument {argv[-2]}: must be >= 1, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["verify", "decomposition", "bwz", "--trials", "0"], 2),
    (["verify", "noncrossing", "bwz", "--samples", "-1"], 2),
    (["trace", "bwz", "--count", "-2"], 2),
    (["trace", "bwz", "--count", "0"], 2),
    # no random members, but the corners are still checked
    (["verify", "noncrossing", "bwz", "--samples", "0"], 0),
    (["trace", "bwz", "--count", "1", "--candidates", "-5"], 2),
    (["verify", "alphabet-bound", "bwz", "--grid", "4", "--trials", "1", "--restarts", "-3"], 2),
    (["verify", "alphabet-bound", "bwz", "--grid", "4", "--trials", "1", "--restarts", "0"], 2),
    # the fixed pool points and a single multistart still search
    (["trace", "bwz", "--count", "1", "--restarts", "1", "--candidates", "0"], 0),
    (["verify", "alphabet-bound", "bwz", "--grid", "4", "--trials", "1", "--restarts", "1"], 0),
])
def test_cli_rejects_counts_that_check_nothing(tmp_path, argv, code):
    out = tmp_path / "o.jsonl"
    assert main(argv + ["--out", str(out)]) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("argv, code", [
    (["extreme-points", "bwz", "--tol", "-1"], 2),
    (["verify", "identities", "bwz", "--trials", "5", "--tol", "-1"], 2),
    (["verify", "alphabet-bound", "bwz", "--grid", "4", "--trials", "1", "--tol", "nan"], 2),
    (["verify", "noncrossing", "bwz", "--tol", "nan"], 2),
    (["verify", "decomposition", "bwz", "--trials", "1", "--tol", "inf"], 2),
    (["verify", "noncrossing", "bwz", "--samples", "2", "--tol", "0"], 0),
])
def test_cli_rejects_negative_or_nonfinite_tol(tmp_path, capsys, argv, code):
    out = tmp_path / "o.jsonl"
    assert main(argv + ["--out", str(out)]) == code
    assert out.exists() == (code == 0)
    assert ("argument --tol: must be finite and >= 0" in capsys.readouterr().err) == (code == 2)


def test_cli_refuses_random_directions_without_a_weight_coordinate(tmp_path):
    # J = M and L = 0: a direction has no coordinate to draw, so the commands
    # that draw one exit 2; run apart so that a hang fails instead of stalling
    path = tmp_path / "no-weights.json"
    save_problem(make_spec(np.random.default_rng(6), m=2, j=2, l=0), path)
    env = {**os.environ, "PYTHONPATH": str(Path(canonical_region.__file__).parents[1])}
    for argv in (["trace", str(path), "--count", "1"],
                 ["verify", "alphabet-bound", str(path), "--grid", "2", "--trials", "1"]):
        run = subprocess.run([sys.executable, "-m", "canonical_region.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 2, run.stderr
        assert "no direction coordinates" in run.stderr


@pytest.mark.parametrize("argv", [
    ["extreme-points", "helper3"],
    ["trace", "bwz", "--count", "1"],
    ["verify", "identities", "dsbs", "--trials", "5"],
    ["verify", "noncrossing", "dsbs", "--samples", "2"],
    ["verify", "decomposition", "helper3", "--trials", "1"],
    ["verify", "alphabet-bound", "bwz", "--grid", "4", "--trials", "1"],
])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "o.jsonl"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_budget_exit(tmp_path):
    rng = np.random.default_rng(101)
    shape = (2,) * 7 + (1, 2)
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    spec = ProblemSpec(7, probs, [])
    path = tmp_path / "wide.json"
    save_problem(spec, path)
    assert main(["extreme-points", str(path)]) == 3


def test_cli_input_errors(tmp_path):
    assert main(["extreme-points", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["extreme-points", str(bad)]) == 2
    assert main(["trace", "dsbs", "--perm", "2,2", "--count", "1",
                 "--restarts", "1", "--sweeps", "1"]) == 2
    assert main(["trace", "dsbs", "--perm", "a,b", "--count", "1",
                 "--restarts", "1", "--sweeps", "1"]) == 2
    empty = tmp_path / "dirs.json"
    empty.write_text(json.dumps({"directions": []}))
    assert main(["trace", "dsbs", "--directions", str(empty)]) == 2
    assert main(["verify", "alphabet-bound", "bwz", "--directions", str(empty)]) == 2
    # quarter-circle sweeps need exactly two weight coordinates
    assert main(["trace", "helper3", "--sweep", "3"]) == 2
    assert main(["trace", "bwz", "--sweep", "1"]) == 2


_PROBLEM = {
    "m": 1, "j": 0, "l": 1,
    "alphabets": {"X": [2], "S": 1, "V": 2, "Vhat": [2]},
    "source": {"probs": [[[0.25, 0.25]], [[0.25, 0.25]]]},
    "distortions": [[[0.0, 1.0], [1.0, 0.0]]],
}


# each case's id is the one pytest generated from its position before ids were
# given: an explicit id stays put when a case is added or moved
@pytest.mark.parametrize("flag, content, field", [
    # problem files (None: the file is the problem)
    pytest.param(None, [1], "top level", id="None-content0-top level"),
    pytest.param(None, {k: v for k, v in _PROBLEM.items() if k != "distortions"},
                 "key 'distortions'", id="None-content1-key 'distortions'"),
    pytest.param(None, {**_PROBLEM, "m": 0}, "m must be >= 1", id="None-content2-m must be >= 1"),
    pytest.param(None, {**_PROBLEM, "alphabets": {"X": [2, 2], "S": 1, "V": 2, "Vhat": [2]}},
                 "alphabets.X", id="None-content3-alphabets.X"),
    pytest.param(None, {**_PROBLEM, "alphabets": {"X": [2], "S": 1, "V": 2, "Vhat": 2}},
                 "alphabets.Vhat", id="None-content4-alphabets.Vhat"),
    pytest.param(None, {**_PROBLEM, "distortions": {}}, "distortions must be a list",
                 id="None-content5-distortions must be a list"),
    pytest.param(None, {**_PROBLEM, "distortions": [3]}, "distortions[0]",
                 id="None-content6-distortions[0]"),
    pytest.param(None, {**_PROBLEM, "distortions": [[[0.0, 1.0], [1.0]]]}, "distortions[0]",
                 id="None-content7-distortions[0]"),
    pytest.param(None, {**_PROBLEM, "name": 3}, "name and notes",
                 id="None-content8-name and notes"),
    pytest.param(None, {**_PROBLEM, "source": {"probs": [], "weights": []}}, "source must be",
                 id="None-content9-source must be"),
    pytest.param(None, {**_PROBLEM, "source": {"entries": []}}, "source.entries",
                 id="None-content10-source.entries"),
    pytest.param(None, {**_PROBLEM, "source": {"probs": [[[True, 0.5]], [[0.25, 0.25]]]}},
                 "source.probs[0][0][0]", id="None-content11-source.probs[0][0][0]"),
    pytest.param(None, {**_PROBLEM, "source": {"probs": [[[None, 0.5]], [[0.25, 0.25]]]}},
                 "source.probs[0][0][0]", id="None-content12-source.probs[0][0][0]"),
    # declared sizes that disagree with the distortion tables
    pytest.param(None, {**_PROBLEM, "l": 2}, "l is 2", id="None-content20-l is 2"),
    pytest.param(None, {**_PROBLEM, "alphabets": {"X": [2], "S": 1, "V": 2, "Vhat": [3]}},
                 "alphabets.Vhat", id="None-content21-alphabets.Vhat"),
    pytest.param(None, {**_PROBLEM, "distortions": [[[0.0, 1.0], ["1", 0.0]]]},
                 "distortions[0][1][0]", id="None-string-in-a-distortion-table"),
    pytest.param(None, {**_PROBLEM, "source": {"entries": [{"symbols": [0, 0, 2], "p": 1}]}},
                 "source.entries[0]", id="None-entry-symbol-out-of-range"),
    # channel banks for bwz
    pytest.param("--channels", {"bank": []}, "channels", id="--channels-content13-channels"),
    pytest.param("--channels", {"channels": {}}, "channels must be a list",
                 id="--channels-content14-channels must be a list"),
    pytest.param("--channels", {"channels": [3]}, "channels[0]",
                 id="--channels-content15-channels[0]"),
    pytest.param("--channels", {"channels": [{"slot": "1", "rows": [[1, 0], [0, 1]]}]},
                 "channels[0].slot", id="--channels-content16-channels[0].slot"),
    pytest.param("--channels", {"channels": [{"slot": 1, "rows": [1, 0]}]},
                 "channels[0] (slot 1)", id="--channels-content17-channels[0] (slot 1)"),
    pytest.param("--channels", {"channels": [{"slot": 1, "rows": [[], []]}]},
                 "channels[0] (slot 1)", id="--channels-no-output-columns"),
    pytest.param("--channels", {"channels": [{"slot": True, "rows": [[1, 0], [0, 1]]}]},
                 "channels[0].slot", id="--channels-boolean-slot"),
    # direction files for bwz
    pytest.param("--directions", {"dirs": []}, "directions",
                 id="--directions-content18-directions"),
    pytest.param("--directions", {"directions": [{"rates": 1, "distortions": [1]}]},
                 "directions[0]", id="--directions-content19-directions[0]"),
    pytest.param("--directions", {"directions": [{"rates": [1], "distortions": [False]}]},
                 "directions[0].distortions[0]", id="--directions-boolean-weight"),
])
def test_cli_names_the_field_of_a_malformed_file(tmp_path, capsys, flag, content, field):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    argv = {
        None: ["extreme-points", str(path)],
        "--channels": ["extreme-points", "bwz", "--channels", str(path)],
        "--directions": ["trace", "bwz", "--directions", str(path)],
    }[flag]
    err = _one_line_error(capsys, argv, 2)
    assert err.startswith("error: ") and field in err, err


@pytest.mark.parametrize("over, field", [
    ({"l": 2}, "l is 2"),
    ({"alphabets": {"X": [2], "S": 1, "V": 2, "Vhat": [3]}}, "alphabets.Vhat"),
])
def test_load_refuses_a_size_mismatch_before_the_spec_warns(tmp_path, over, field):
    # X1 symbol 1 has probability 0, which the spec would warn about; the
    # declared sizes disagree with the one table, so the file is refused first
    path = write_problem(tmp_path, source={"probs": [[[0.5, 0.5]], [[0.0, 0.0]]]}, **over)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        with pytest.raises(InputError, match=re.escape(field)):
            load_problem(path)


def test_load_accepts_integer_probabilities(tmp_path):
    spec = load_problem(write_problem(
        tmp_path, alphabets={"X": [1], "S": 1, "V": 2, "Vhat": [2]},
        source={"entries": [{"symbols": [0, 0, 0], "p": 1}]},
    ))
    assert spec.source_fractions == (Fraction(1), Fraction(0))


def test_cli_exits_1_on_a_numeric_integrity_failure(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise NumericIntegrityError("objective rose")
    monkeypatch.setattr(optimize, "coordinate_descent", broken)
    assert main(["trace", "bwz", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verification failure: objective rose\n"
    assert "elapsed" not in captured.out


def test_cli_exits_1_on_a_failed_precondition_inside_a_descent(monkeypatch, capsys):
    # a PreconditionError is a StructuralError, but no CLI path hands one user
    # input, so a descent that raises it fails verification, not the input
    def broken(*args, **kwargs):
        raise PreconditionError("reverse pair violates the mixture identity by 5.000e-07")
    monkeypatch.setattr(optimize, "reverse_to_forward", broken)
    assert main(["trace", "bwz", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("verification failure: reverse pair violates the mixture "
                            "identity by 5.000e-07\n")
    assert "elapsed" not in captured.out


def small_mass_ternary(tmp_path, eps):
    """bwz with a ternary X whose symbol 2 has mass ``eps``, taken from (x, s) = (1, 1);
    V = X under 3x3 Hamming distortion.  The masses are exact decimals."""
    masses = {(0, 0): "0.375", (0, 1): "0.125", (1, 0): "0.125",
              (1, 1): str(Fraction("0.375") - Fraction(eps)), (2, 1): eps}
    return write_problem(
        tmp_path, f"ternary-{eps}.json", alphabets={"X": [3], "S": 2, "V": 3, "Vhat": [3]},
        source={"entries": [{"symbols": [x, s, x], "p": p} for (x, s), p in masses.items()]},
        distortions=[(1 - np.eye(3, dtype=int)).tolist()])


@pytest.mark.parametrize("eps", ["1e-6", "1e-10"])   # a fixed set: never shrink it
def test_cli_trace_on_a_small_mass_symbol_exits_0_or_1_on_one_line(tmp_path, capsys, eps):
    # a valid file never exits 2, and an integrity failure names one value
    problem = str(small_mass_ternary(tmp_path, eps))
    for seed in (1, 2, 3, 4):
        code = main(["trace", problem, "--count", "8", "--seed", str(seed)])
        err = capsys.readouterr().err
        assert code in (0, 1) and len(err.splitlines()) <= 1, (seed, code, err)


def test_cli_trace_refuses_an_lp_optimum_off_its_rows(tmp_path, capsys, monkeypatch):
    # at eps = 1e-5 and seed 2 one slot LP's basic optimum misses its mixture rows
    # by about 6.6e-5 of max b: the solver refuses it on one line, naming the LP,
    # and the same LP solved alone is refused the same way
    problem = str(small_mass_ternary(tmp_path, "1e-5"))
    calls = []
    solve = optimize.solve_equality_lp
    monkeypatch.setattr(optimize, "solve_equality_lp",
                        lambda *args: calls.append(args) or solve(*args))
    assert main(["trace", problem, "--count", "8", "--seed", "2"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    found = re.fullmatch(r"verification failure: LP (\d+)'s optimum misses A w = b by "
                         r"(\S+) of max b, above 1e-09", line)
    assert found and float(found[2]) > 1e-6, line
    c, a, b, warm = calls[-1]
    at = slice(int(found[1]), int(found[1]) + 1)
    alone = rf"^LP 0's optimum misses A w = b by {found[2]}"
    with pytest.raises(NumericIntegrityError, match=alone):
        solve_equality_lp(c[at], a[at], b[at], warm)


def test_cli_out_is_written_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    target = tmp_path / "taken"
    target.mkdir()
    argv = ["extreme-points", "bwz", "--out"]
    assert main(argv + [str(target)]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []
    out = tmp_path / "corners.jsonl"
    out.write_text("stale\n")
    assert main(argv + [str(out)]) == 0
    assert read_records(out)[0]["type"] == "run"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corners.jsonl", "taken"]

    def fail(src, dst):
        raise OSError("disk full")

    before = out.read_bytes()
    monkeypatch.setattr(os, "replace", fail)
    assert main(["verify", "identities", "bwz", "--trials", "3", "--out", str(out)]) == 2
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corners.jsonl", "taken"]


def test_cli_out_write_error_names_only_the_given_path(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "corners.jsonl"
    errors = []
    for pid in (4101, 4102):                  # two runs, two process ids
        monkeypatch.setattr(os, "getpid", lambda: pid)
        assert main(["extreme-points", "bwz", "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: cannot write {out}: No such file or directory\n"
    assert ".tmp" not in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_cli_out_writes_through_non_regular_targets(tmp_path):
    argv = ["extreme-points", "bwz", "--out"]
    assert main(argv + [os.devnull]) == 0
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
    assert not os.path.lexists(f"{os.devnull}.{os.getpid()}.tmp")
    real = tmp_path / "real.jsonl"
    real.write_text("stale\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink()
    assert read_records(real)[0]["type"] == "run"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]


def test_cli_out_keeps_mode_of_existing_file(tmp_path):
    out = tmp_path / "corners.jsonl"
    out.write_text("stale\n")
    out.chmod(0o640)
    assert main(["extreme-points", "bwz", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert read_records(out)[0]["type"] == "run"


def test_cli_trace_sweep(tmp_path, capsys):
    out1 = tmp_path / "t1.jsonl"
    out2 = tmp_path / "t2.jsonl"
    argv = ["trace", "bwz", "--sweep", "5", "--restarts", "2", "--sweeps", "10",
            "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = read_records(out1)
    assert records[0]["params"]["sweep"] == 5
    points = [r for r in records if r["type"] == "trace-point"]
    assert len(points) == 5
    for r in points:
        assert set(r) == {
            "type", "index", "direction", "objective", "rates", "distortions",
            "sweeps", "restart", "trace",
        }
        assert set(r["direction"]) == {"rates", "distortions"}
        # descent traces are non-increasing
        trace = r["trace"]
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
    rates = [r["rates"][0] for r in points]
    dists = [r["distortions"][0] for r in points]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
    assert records[-1] == {
        "type": "summary", "command": "trace", "passed": True, "points": 5,
    }


def test_cli_trace_directions_file_and_perm(tmp_path):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"directions": [
        {"rates": [3, 4], "distortions": [0]},
    ]}))
    out = tmp_path / "t.jsonl"
    assert main(["trace", "dsbs", "--directions", str(dirs), "--perm", "2,1",
                 "--restarts", "2", "--sweeps", "5", "--out", str(out)]) == 0
    records = read_records(out)
    assert records[0]["params"]["perm"] == [2, 1]
    point = next(r for r in records if r["type"] == "trace-point")
    assert np.allclose(point["direction"]["rates"], [0.6, 0.8])
    assert point["direction"]["distortions"] == [0.0]


def test_cli_trace_refuses_sweep_with_directions_file(tmp_path, capsys):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"directions": [{"rates": [1], "distortions": [1]}]}))
    out = tmp_path / "t.jsonl"
    assert main(["trace", "bwz", "--sweep", "3", "--directions", str(dirs),
                 "--out", str(out)]) == 2
    assert "argument --directions: not allowed with argument --sweep" in capsys.readouterr().err
    assert not out.exists()


def test_cli_trace_refuses_count_with_sweep_or_directions_file(tmp_path, capsys):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"directions": [{"rates": [1], "distortions": [1]}]}))
    out = tmp_path / "t.jsonl"
    for given in (["--directions", str(dirs)], ["--sweep", "3"]):
        for count in ("1", "8"):                      # the default value too
            assert main(["trace", "bwz", *given, "--count", count,
                         "--out", str(out)]) == 2
            assert "--count" in capsys.readouterr().err
            assert not out.exists()


def test_cli_alphabet_bound_refuses_trials_with_directions_file(tmp_path, capsys):
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"directions": [{"rates": [1], "distortions": [1]}]}))
    out = tmp_path / "ab.jsonl"
    assert main(["verify", "alphabet-bound", "bwz", "--directions", str(dirs),
                 "--trials", "2", "--grid", "4", "--out", str(out)]) == 2
    assert "argument --trials: not allowed with argument --directions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, flag", [
    ("decomposition", "--channels"), ("decomposition", "--directions"),
    ("alphabet-bound", "--channels"), ("identities", "--directions"),
    ("noncrossing", "--directions"),
])
def test_cli_verify_refuses_a_file_its_suite_does_not_read(tmp_path, capsys, suite, flag):
    files = {
        "--channels": {"channels": [{"slot": 1, "rows": [[0.8, 0.2], [0.3, 0.7]]},
                                    {"slot": 2, "rows": [[0.6, 0.4], [0.25, 0.75]]}]},
        "--directions": {"directions": [{"rates": [1, 1], "distortions": [1]}]},
    }
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(files[flag]))
    out = tmp_path / "v.jsonl"
    assert main(["verify", suite, "dsbs", flag, str(path), "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_channels_file(tmp_path):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"channels": [
        {"slot": 1, "rows": [[0.8, 0.2], [0.3, 0.7]]},
        {"slot": 2, "rows": [[0.6, 0.4], [0.25, 0.75]]},
    ]}))
    assert main(["verify", "identities", "dsbs", "--trials", "20",
                 "--channels", str(chan)]) == 0


# ---- every flag matters ------------------------------------------------------


def _leaf_commands(parser, words=()):
    """(command words, parser) for every command that runs, ``verify`` suites included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*words, name))
            return
    yield " ".join(words), parser


def _flag_cases():
    for command, parser in _leaf_commands(build_parser()):
        for action in parser._actions:
            flag = max(action.option_strings, default=None, key=len)
            if flag not in (None, "--help", "--out"):
                yield pytest.param(command, flag, id=f"{command} {flag}")


# one cheap invocation per flag, with a value other than the flag's default;
# the test also runs it with the default in that value's place (or without the
# flag when it has none). A flag missing here fails. Where records carry only
# verdicts (noncrossing) or descent ends at the lattice optimum, the settings
# are chosen so that the flag's effect reaches the output.
FLAG_CASES = {
    "extreme-points --channels": "dsbs --channels bank.json",
    "extreme-points --seed": "dsbs --seed 3",
    "extreme-points --tol": "dsbs --tol 0.5",
    "verify identities --seed": "dsbs --trials 5 --seed 3",
    "verify identities --trials": "dsbs --trials 7",
    "verify identities --tol": "dsbs --trials 5 --tol 0",
    "verify identities --channels": "dsbs --trials 5 --channels bank.json",
    "verify noncrossing --seed": "dsbs --samples 5 --tol 0.1 --seed 3",
    "verify noncrossing --samples": "dsbs --samples 7",
    "verify noncrossing --tol": "dsbs --samples 5 --tol 0.5",
    "verify noncrossing --channels": "dsbs --samples 5 --tol 0.1 --channels bank.json",
    "verify decomposition --seed": "dsbs --trials 2 --seed 3",
    "verify decomposition --trials": "dsbs --trials 3",
    "verify decomposition --tol": "dsbs --trials 2 --tol 0",
    "verify alphabet-bound --seed": "bwz --directions dirs-bwz.json --grid 3 --sweeps 2 "
                                    "--candidates 8 --seed 3",
    "verify alphabet-bound --directions": "bwz --grid 3 --directions dirs-bwz.json",
    "verify alphabet-bound --trials": "bwz --grid 3 --trials 2",
    "verify alphabet-bound --grid": "bwz --trials 1 --grid 4",
    "verify alphabet-bound --sweeps": "bwz --directions dirs-bwz.json --grid 3 --candidates 8 "
                                      "--sweeps 1",
    "verify alphabet-bound --candidates": "bwz --directions dirs-bwz.json --grid 3 --sweeps 2 "
                                          "--candidates 0",
    "verify alphabet-bound --restarts": "bwz --directions dirs-bwz.json --grid 3 --sweeps 2 "
                                        "--candidates 8 --restarts 8",
    "verify alphabet-bound --tol": "bwz --directions dirs-bwz.json --grid 3 --sweeps 2 "
                                   "--candidates 8 --tol 0",
    "trace --seed": "dsbs --count 2 --restarts 2 --sweeps 2 --candidates 4 --seed 3",
    "trace --directions": "dsbs --restarts 2 --sweeps 2 --directions dirs-dsbs.json",
    "trace --sweep": "bwz --restarts 2 --sweeps 2 --sweep 3",   # bwz has two weights
    "trace --count": "dsbs --restarts 2 --sweeps 2 --count 2",
    "trace --perm": "dsbs --directions dirs-dsbs.json --restarts 2 --sweeps 2 --perm 2,1",
    "trace --restarts": "bwz --count 4 --sweeps 2 --candidates 4 --restarts 1",
    "trace --sweeps": "dsbs --count 2 --restarts 2 --sweeps 1",
    "trace --candidates": "dsbs --count 4 --restarts 2 --sweeps 5 --candidates 0",
}


def _run_without_header(argv, capsys):
    """Exit code, ``--out`` records without the ``run`` header, and stdout without ``elapsed``."""
    out = Path("o.jsonl")
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    stdout = [line for line in capsys.readouterr().out.splitlines()
              if not line.startswith("elapsed ")]
    records = [r for r in read_records(out) if r["type"] != "run"] if out.exists() else None
    return code, records, stdout


@pytest.mark.parametrize("command, flag", list(_flag_cases()))
def test_cli_every_flag_changes_the_result_or_exits_2(tmp_path, monkeypatch, capsys,
                                                       command, flag):
    case = FLAG_CASES.get(f"{command} {flag}")
    assert case is not None, f"no case for {command} {flag}"
    monkeypatch.chdir(tmp_path)
    Path("bank.json").write_text(json.dumps({"channels": [
        {"slot": 1, "rows": [[0.8, 0.2], [0.3, 0.7]]},
        {"slot": 2, "rows": [[0.6, 0.4], [0.25, 0.75]]},
    ]}))
    Path("dirs-bwz.json").write_text(json.dumps({"directions": [
        {"rates": [1], "distortions": [d]} for d in (3, 6, 1.5)
    ] + [{"rates": [2], "distortions": [3]}]}))
    Path("dirs-dsbs.json").write_text(json.dumps({"directions": [
        {"rates": [1, 1], "distortions": [15]}, {"rates": [0.5, 2], "distortions": [6]},
        {"rates": [1, 2], "distortions": [8]}, {"rates": [2, 1], "distortions": [4]},
    ]}))

    argv = [*command.split(), *case.split()]
    at = argv.index(flag)
    default = dict(_leaf_commands(build_parser()))[command]._option_string_actions[flag].default
    base = argv[:at] + ([] if default is None else [flag, default]) + argv[at + 2:]
    default_run = _run_without_header(base, capsys)
    assert default_run[0] in (0, 1), base
    changed = _run_without_header(argv, capsys)
    assert changed[0] == 2 or changed != default_run, f"{' '.join(argv)} changed nothing"


# ---- one output contract -----------------------------------------------------


# cheap invocations per command: each suite has a passing and a failing one;
# a command missing here fails
CONTRACT_CASES = {
    "extreme-points": ["dsbs --tol 0"],
    "verify identities": ["dsbs --trials 3", "dsbs --trials 3 --tol 0"],
    "verify noncrossing": ["dsbs --samples 3", "helper3 --samples 3 --tol 10"],
    "verify decomposition": ["dsbs --trials 1", "dsbs --trials 1 --tol 0"],
    "verify alphabet-bound": ["bwz --grid 3 --trials 1 --sweeps 2 --candidates 4 --restarts 1",
                              "dsbs --grid 3 --trials 1 --tol 0 --seed 3"],
    "trace": ["dsbs --count 1 --restarts 1 --sweeps 1"],
}


def _keeps_the_output_contract(argv, tmp_path, capsys) -> int:
    out = tmp_path / "o.jsonl"
    code = main([*argv, "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    records = read_records(out)
    assert records[0]["type"] == "run"
    assert [r["type"] for r in records].count("summary") == 1
    summary = records[-1]
    assert summary["type"] == "summary" and summary["command"] == argv[0]
    assert ("suite" in summary) == (argv[0] == "verify")
    assert summary.get("suite") == (argv[1] if argv[0] == "verify" else None)
    assert code == (0 if summary["passed"] else 1)
    if argv[0] == "verify":
        # a suite's body is its check records, and it passes exactly when they all do
        checks = records[1:-1]
        assert checks and all(r["type"] == "check" and r["suite"] == summary["suite"]
                              for r in checks)
        assert summary["passed"] == all(r["passed"] for r in checks)
    assert lines[-1].startswith("elapsed ")
    verdicts = [line for line in lines if re.search(r"\b(PASS|FAIL)$", line)]
    assert all(v.endswith("PASS" if summary["passed"] else "FAIL") for v in verdicts)

    # an unwritable --out exits 2 before the verdict line and elapsed
    taken = tmp_path / "taken"
    taken.mkdir(exist_ok=True)
    assert main([*argv, "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {taken}")
    assert lines[:-1] == captured.out.splitlines() + verdicts
    assert list(taken.iterdir()) == []
    return code


@pytest.mark.parametrize("command", [c for c, _ in _leaf_commands(build_parser())])
def test_cli_every_command_keeps_the_output_contract(tmp_path, capsys, command):
    cases = CONTRACT_CASES.get(command)
    assert cases is not None, f"no case for {command}"
    codes = [_keeps_the_output_contract([*command.split(), *case.split()], tmp_path, capsys)
             for case in cases]
    if command.startswith("verify "):
        assert codes == [0, 1]
