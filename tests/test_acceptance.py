"""Acceptance gate: one verdict line per criterion, printed to the console.

Each test exercises one end-to-end guarantee at its stated tolerance and
time budget and prints ``[acceptance] C<n> <label>: PASS/FAIL`` outside
pytest's capture, so the lines show up in any run, ``-v`` included.
"""
from __future__ import annotations

import itertools
import json
import time
from functools import lru_cache

import numpy as np

from canonical_region import (
    attach_channels,
    coordinate_descent,
    distortion_component,
    enumerate_extreme_points,
    identity_channel,
    membership,
    nondegeneracy_report,
    random_channel,
    random_channels,
    random_direction,
    rate_lhs,
    resolve_problem,
    verify_alphabet_bound,
    verify_chain_identities,
    verify_linear_decomposition,
    verify_noncrossing,
)
from canonical_region.cli import main
from conftest import (
    distinct_count,
    estimator_distortion,
    expected_active_groups,
    make_spec,
)


def _run(num: int, label: str, budget, body, capsys) -> None:
    t0 = time.perf_counter()
    try:
        ok = bool(body())
        err = None
    except Exception as exc:           # still print a verdict line, then re-raise
        ok, err = False, exc
    elapsed = time.perf_counter() - t0
    within = budget is None or elapsed < budget
    verdict = "PASS" if (ok and within and err is None) else "FAIL"
    extra = f", budget {budget:.0f}s" if budget is not None else ""
    with capsys.disabled():
        print(f"[acceptance] C{num} {label}: {verdict} ({elapsed:.1f}s{extra})",
              flush=True)
    if err is not None:
        raise err
    assert ok, f"criterion {num} ({label}) failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


@lru_cache(maxsize=1)
def _shared_instances():
    """Eight random two- and three-source instances with channel banks."""
    out = []
    for i in range(8):
        rng = np.random.default_rng((700, i))
        spec = make_spec(rng, m=2 + (i % 2), l=1)
        aug = attach_channels(spec, random_channels(spec, rng))
        out.append(aug)
    return out


def test_c1_extreme_point_enumeration(capsys):
    helper3 = resolve_problem("helper3")

    def body():
        ok = True
        banks = 0
        attempt = 0
        while banks < 5:
            rng = np.random.default_rng((900, attempt))
            attempt += 1
            assert attempt < 50
            chans = random_channels(helper3, rng)
            aug = attach_channels(helper3, chans)
            if nondegeneracy_report(aug).degenerate:
                continue
            banks += 1
            points = enumerate_extreme_points(aug)
            ok = ok and len(points) == 6
            ok = ok and distinct_count(points, tol=1e-6) == 6
            for perm, rates in points:
                report = membership(aug, rates)
                ok = ok and report.is_member
                active = set(report.active_groups)
                ok = ok and active == set(expected_active_groups(perm))
                ok = ok and len(active) == 3
                chain = sorted(active, key=len)
                ok = ok and all(
                    set(a) <= set(b) for a, b in zip(chain, chain[1:])
                )
        return ok

    _run(1, "six distinct member corners", 5.0, body, capsys)


def test_c2_group_information_identities(capsys):
    def body():
        draws = 0
        ok = True
        expected = {
            "condition-drop-split", "disjoint-union-split",
            "restricted-union-split", "element-peel-chain",
            "prefix-chain", "suffix-chain", "corner-sum-bound",
        }
        for i, aug in enumerate(_shared_instances()):
            report = verify_chain_identities(aug, trials=30, tol=1e-9, seed=i)
            draws += 30
            ok = ok and report.passed
            ok = ok and {c.name for c in report.checks} == expected
            # the sum bound records violations one-sided, so one ceiling fits all
            ok = ok and all(c.worst_violation <= 1e-9 for c in report.checks)
        return ok and draws >= 200

    _run(2, "group information identities", 30.0, body, capsys)


def test_c3_tight_set_chains(capsys):
    def body():
        ok = True
        for i, aug in enumerate(_shared_instances()):
            points = enumerate_extreme_points(aug)
            for _, rates in points:
                ok = ok and verify_noncrossing(aug, rates)
            corners = np.array([r for _, r in points])
            rng = np.random.default_rng((701, i))
            for _ in range(50):
                weights = rng.dirichlet(np.ones(len(points)))
                member = weights @ corners + rng.exponential(0.05, size=aug.m)
                ok = ok and verify_noncrossing(aug, member)
        return ok

    _run(3, "tight sets chain", 10.0, body, capsys)


def test_c4_sum_rate_invariance(capsys):
    def body():
        ok = True
        helper3 = resolve_problem("helper3")
        rng = np.random.default_rng(702)
        augs = list(_shared_instances())
        augs.append(attach_channels(helper3, random_channels(helper3, rng)))
        for aug in augs:
            full = rate_lhs(aug, range(1, aug.m + 1))
            sums = [float(r.sum()) for _, r in enumerate_extreme_points(aug)]
            ok = ok and max(sums) - min(sums) <= 1e-9
            ok = ok and all(abs(s - full) <= 1e-9 for s in sums)
        return ok

    _run(4, "sum-rate invariance", None, body, capsys)


def test_c5_mixture_decomposition(capsys):
    def body():
        triples = 0
        ok = True
        i = 0
        while triples < 200:
            rng = np.random.default_rng((703, i))
            i += 1
            m = int(rng.integers(1, 4))
            j = int(rng.integers(0, m))          # keep at least one channel slot
            spec = make_spec(rng, m=m, j=j, l=int(rng.integers(0, 3)))
            chans = random_channels(spec, rng)
            for _ in range(2):
                direction = random_direction(spec.m, spec.j, spec.l, rng)
                report = verify_linear_decomposition(spec, chans, direction, tol=1e-9)
                ok = ok and report.passed and report.worst_error <= 1e-9
                triples += len(report.entries)
        return ok and triples >= 200

    _run(5, "mixture decomposition", 60.0, body, capsys)


def test_c6_alphabet_bound(capsys):
    bwz = resolve_problem("bwz")
    dsbs = resolve_problem("dsbs")

    def body():
        rng = np.random.default_rng(704)
        dirs1 = [random_direction(1, 0, 1, rng) for _ in range(10)]
        report1 = verify_alphabet_bound(bwz, dirs1, grid=12, tol=1e-2,
                                        restarts=4, seed=3)
        ok = report1.passed
        ok = ok and report1.capped_grid == 12 and report1.enlarged_grid == 12
        ok = ok and report1.enlarged_sizes == (4,)
        dirs2 = [random_direction(2, 0, 1, rng) for _ in range(10)]
        # the enlarged (|Z|=4, |Z|=4) lattice cannot afford grid 12; it runs
        # at the largest grid inside the evaluation budget instead
        report2 = verify_alphabet_bound(dsbs, dirs2, grid=12, tol=1e-2,
                                        restarts=4, seed=3)
        ok = ok and report2.passed
        ok = ok and report2.capped_grid == 12 and report2.enlarged_grid == 5
        ok = ok and report2.enlarged_sizes == (4, 4)
        for report in (report1, report2):
            for entry in report.entries:
                ok = ok and entry.capped_value <= entry.enlarged_value + 1e-2
        return ok

    _run(6, "alphabet bound", 600.0, body, capsys)


def test_c7_descent_monotonicity(capsys):
    def body():
        ok = True
        for run in range(50):
            rng = np.random.default_rng((705, run))
            m = int(rng.integers(1, 3))
            j = int(rng.integers(0, m))
            spec = make_spec(rng, m=m, j=j, l=int(rng.integers(0, 3)))
            direction = random_direction(spec.m, spec.j, spec.l, rng)
            init = random_channels(spec, rng)
            (result,) = coordinate_descent(spec, direction, [init], [run], sweeps=5,
                                           candidates=16)
            diffs = np.diff(result.trace)
            ok = ok and diffs.max(initial=-np.inf) <= 1e-10
            for ch, k in zip(result.channels, spec.channel_slots):
                ok = ok and ch.rows.shape[-1] <= spec.x_alphabet(k).size
        return ok

    _run(7, "descent monotonicity", None, body, capsys)


def _loop_distortion(aug, l, table):
    """Reference expected distortion: plain loops over the observation law."""
    m, j = aug.m, aug.j
    # the bits of X1..XJ, S, V and Z_{J+1}..Z_M in the layout X1..XM, S, V, Z_{J+1}..Z_M
    obs_and_v = (1 << j) - 1 | 3 << m | ((1 << (m - j)) - 1) << (m + 2)
    m_uv = np.moveaxis(aug.joint.marginal(obs_and_v), j + 1, -1)   # V after X1..XJ, S
    d = aug.spec.distortions[l - 1]
    total = 0.0
    flat_tab = np.asarray(table).ravel()
    cells = m_uv.reshape(-1, m_uv.shape[-1])
    for u in range(cells.shape[0]):
        for v in range(cells.shape[1]):
            total += cells[u, v] * d[v, flat_tab[u]]
    return total


def test_c8_estimator_optimality(capsys):
    bwz = resolve_problem("bwz")
    dsbs = resolve_problem("dsbs")
    helper3 = resolve_problem("helper3")

    def body():
        rng = np.random.default_rng(706)
        ok = True
        instances = [
            attach_channels(bwz, [identity_channel(bwz.x_alphabets[0])]),
            attach_channels(bwz, [random_channel(bwz.x_alphabets[0], 4, rng)]),
            attach_channels(dsbs, random_channels(dsbs, rng)),
            attach_channels(helper3, random_channels(helper3, rng)),
        ]
        for aug in instances:
            value, table = distortion_component(aug, 1)
            vhat = aug.spec.vhat_alphabets[0].size
            n_tables = vhat ** table.size
            if n_tables <= 256:
                # exhaustive oracle scan, computed by independent loops
                best = min(
                    _loop_distortion(aug, 1, np.array(flat).reshape(table.shape))
                    for flat in itertools.product(range(vhat), repeat=table.size)
                )
                ok = ok and abs(value - best) <= 1e-12
            for _ in range(100):
                table = rng.integers(0, vhat, size=table.shape)
                ok = ok and estimator_distortion(aug, 1, table) >= value - 1e-12
        return ok

    _run(8, "estimator optimality", 10.0, body, capsys)


def test_c9_cli_determinism(tmp_path, capsys):
    def body():
        ok = True
        commands = [
            ["extreme-points", "helper3", "--seed", "11"],
            ["verify", "identities", "dsbs", "--trials", "30", "--seed", "11"],
            ["trace", "bwz", "--sweep", "5", "--restarts", "2",
             "--sweeps", "8", "--seed", "11"],
        ]
        for idx, argv in enumerate(commands):
            first = tmp_path / f"{idx}-a.jsonl"
            second = tmp_path / f"{idx}-b.jsonl"
            ok = ok and main(argv + ["--out", str(first)]) == 0
            ok = ok and main(argv + ["--out", str(second)]) == 0
            ok = ok and first.read_bytes() == second.read_bytes()
            for line in first.read_text().splitlines():
                json.loads(line)            # every record is one JSON object
        return ok

    _run(9, "cli determinism", None, body, capsys)
