"""Each output check passes on the program's output and fails on a perturbed copy.

    python3 -m pytest perfbench/test_checks.py

Small ranks keep this quick; the checks are the ones the benchmark runs.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spincas import casimir, oracles, spectra, ybe  # noqa: E402


def passed(results):
    return all(ok for _, ok, _ in results)


def perturb_first(entries: dict, delta=Fraction(1, 7)) -> dict:
    out = dict(entries)
    key = min(out)
    re, im = out[key]
    out[key] = (re + delta, im)
    return out


def test_hs_norm():
    entries = checks._pairs(casimir.invariant_I(3, 2))
    assert passed(checks.check_hs_norm(3, 2, entries.values()))
    assert not passed(checks.check_hs_norm(3, 2, perturb_first(entries).values()))


def test_casimir_is_scaled_i2():
    c = checks._pairs(casimir.split_casimir_rho(2).matrix)
    i2 = checks._pairs(casimir.invariant_I(2, 2))
    assert passed(checks.check_casimir_is_i2(2, c, i2))
    assert not passed(checks.check_casimir_is_i2(2, perturb_first(c), i2))


def test_characteristic_identity():
    c = checks.dense(casimir.split_casimir_rho(3).matrix)
    assert passed(checks.check_characteristic_identity(3, c, random.Random(1)))
    bad = c.copy()
    bad[0, 1] += 0.01
    bad[1, 0] += 0.01
    assert not passed(checks.check_characteristic_identity(3, bad, random.Random(1)))
    # a scalar operator satisfies the identity but misses the other eigenvalues
    scalar = float(checks.eigenvalue(3, 0)) * np.eye(c.shape[0])
    assert not passed(checks.check_characteristic_identity(3, scalar, random.Random(1)))


def test_sector_spectrum_and_eigenvalues():
    data = spectra.sector_spectral(3, "++")
    entries = data.spectrum.entries
    labels = [k for k, _, _ in entries]
    block = checks.dense(data.block)
    assert passed(checks.check_sector_spectrum(3, "++", entries, data.block.dim))
    k, ev, rank = entries[0]
    wrong_rank = ((k, ev, rank + 1),) + entries[1:]
    wrong_value = ((k, ev + Fraction(1, 64), rank),) + entries[1:]
    assert not passed(checks.check_sector_spectrum(3, "++", wrong_rank, data.block.dim))
    assert not passed(checks.check_sector_spectrum(3, "++", wrong_value, data.block.dim))

    assert passed(checks.check_block_eigenvalues(3, "++", block, labels))
    bad = block.copy()
    bad[0, 0] += 0.5
    assert not passed(checks.check_block_eigenvalues(3, "++", bad, labels))

    projectors = {k: checks.dense(p) for k, p in data.projectors.items()}
    assert passed(checks.check_projectors(3, "++", block, projectors, random.Random(2)))
    first = min(projectors)
    projectors[first] = projectors[first].copy()
    projectors[first][0, 1] += 0.25
    assert not passed(checks.check_projectors(3, "++", block, projectors, random.Random(2)))


def test_braid_ybe():
    u, v = Fraction(2, 3), Fraction(-5, 7)
    mats = [checks.dense(ybe.full_r_matrix(2, x)) for x in (u, v, u + v)]
    assert passed(checks.check_braid_ybe(*mats, "r=2"))
    bad = mats[0].copy()
    bad[0, 3] += 0.125
    assert not passed(checks.check_braid_ybe(bad, *mats[1:], "r=2"))
    assert passed(checks.check_not_scalar(mats[0], "r=2"))
    assert not passed(checks.check_not_scalar(np.eye(16) * 3.0, "r=2"))


def test_spinor_casimir_and_oracles():
    r, n = 3, 6
    value = oracles.c2_closed_form("Delta_plus", r)
    assert passed(checks.check_spinor_casimir(r, {"closed-form": value}))
    assert not passed(checks.check_spinor_casimir(r, {"closed-form": value + Fraction(1, 64)}))

    a, b = (1, 2), (2, 3)
    row = oracles.commutator_table(n)[(a, b)]
    assert row
    assert passed(checks.check_commutator(n, a, b, row))
    assert not passed(checks.check_commutator(n, a, b, {p: -c for p, c in row.items()}))

    g = oracles.killing_metric_from_contraction(n, a, a)
    assert g != 0
    assert passed(checks.check_killing(n, a, a, g))
    assert not passed(checks.check_killing(n, a, a, g + 1))


def test_artifact_problems():
    report = {
        "summary": {"pass": 2, "fail": 0, "skip": 0, "documented-discrepancy": 0},
        "ok": True,
        "records": [{"name": "x", "ok": True, "checks": [{"id": "a", "status": "pass"}, {"id": "b", "status": "pass"}]}],
    }
    text = json.dumps(report).encode()
    assert run.artifact_problems(text, 0) == (2, 0, [])
    report["records"][0]["checks"][1]["status"] = "fail"
    checks_n, failed, problems = run.artifact_problems(json.dumps(report).encode(), 0)
    assert (checks_n, failed) == (2, 1) and problems
    assert run.artifact_problems(b"not json", 0)[2]


def test_pacer_samples_during_a_call():
    pacer = pace.Pacer()
    pacer.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 5 * pace.INTERVAL_S:
        pass
    end = time.perf_counter()
    pacer.stop()
    assert len(pacer.samples) >= 5 and pacer.factor > 0
    assert all(a < b <= c for (a, b), (c, _) in zip(pacer.pauses, pacer.pauses[1:]))
    assert 0 < pacer.paused_s(before=end) < end - start


def test_pauses_are_taken_out_of_span_times():
    tracer = spans.Tracer()
    # a kernel span over [1, 3] with a pause inside it and one before it
    tracer.spans = [("kernels.mat_mul", -1, 1.0, 1.0, 3.0, 3.0, True)]
    out = tracer.metrics(3.3, [(0.2, 0.4), (1.5, 2.0)])
    assert abs(out["kernels.mat_mul.s"] - 1.5) < 1e-12
    assert abs(out["cli.self_s"] - 1.8) < 1e-12


def test_traced_call_keeps_artifact_and_counts(tmp_path):
    """A traced child writes the same artifact bytes as a plain one, and its
    counts repeat exactly between two traced calls."""
    cli = ["gamma", "--r", "2"]
    results, artifacts = [], []
    for index, mode in enumerate(("plain", "trace", "trace")):
        stem = str(tmp_path / f"{index}")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), stem + ".json", mode, "-", "-", "--"]
        subprocess.run(cmd + cli + ["--out", stem + ".out"], check=True, env=run._env(), timeout=120)
        with open(stem + ".json", encoding="utf-8") as fh:
            results.append(json.load(fh))
        with open(stem + ".out", "rb") as fh:
            artifacts.append(fh.read())
    assert artifacts[0] == artifacts[1] == artifacts[2]
    first, second = results[1]["layers"], results[2]["layers"]
    assert first["clifford.build_gamma.calls"] >= 1
    assert first["records.integrity_report.s"] > 0
    assert first["report.gamma_suite.calls"] == 1  # reached through report._SUITE_RUNNERS
    counts = [k for k in first if k.endswith(spans.COUNTS)]
    assert counts and all(first[k] == second[k] for k in counts)
