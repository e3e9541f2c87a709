"""The benchmark's checks pass on real crsphere output and fail on corrupted output.

Outputs come from the real CLI at small sizes (n=1, N<=6), each command
run once per module; a test corrupts its own copy.
"""

import csv
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crsphere.cli import main as cli_main  # noqa: E402

N = 6


def _perturbed_run(tmp_dir, command, sup):
    terms = workloads.draw_upsilon(random.Random(5), 1, sup)
    pert = str(tmp_dir / "upsilon.json")
    workloads.write_perturbation(pert, terms, "test")
    out = str(tmp_dir / "out")
    assert cli_main(command + ["--n", "1", "--degree", str(N), "--perturbation", pert,
                               "--out", out]) == 0
    return terms, out


@pytest.fixture(scope="module")
def qsolve_out(tmp_path_factory):
    return _perturbed_run(tmp_path_factory.mktemp("qsolve"), ["qcurv", "solve"],
                          workloads.QSOLVE_SUP)


@pytest.fixture(scope="module")
def chain_out(tmp_path_factory):
    return _perturbed_run(tmp_path_factory.mktemp("chain"), ["parametrix-check"],
                          workloads.CHAIN_SUP)


@pytest.fixture(scope="module")
def basis_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("basis")
    cache, out = str(base / "cache"), str(base / "out")
    assert cli_main(["basis", "--n", "1", "--degree", "4", "--cache", cache, "--out", out]) == 0
    return base


@pytest.fixture(scope="module")
def selftest_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("selftest") / "out")
    assert cli_main(["heisenberg-selftest", "--sweep", "1..1", "--out", out]) == 0
    return out


def _copy(src, tmp_path):
    dst = str(tmp_path / os.path.basename(src))
    shutil.copytree(src, dst)
    return dst


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_closed_forms():
    assert [checks.dim_hpq(1, p, q) for p, q in [(0, 0), (1, 0), (1, 1), (2, 1)]] == [1, 2, 3, 4]
    assert checks.dim_hpq(2, 1, 1) == 8
    assert checks.p_eigenvalue(1, 1, 1) == 16
    assert checks.p_eigenvalue(1, 3, 0) == 0 and checks.p_eigenvalue(2, 0, 2) == 0
    assert checks.kernel_dim(1, 12) == 181
    assert checks.parse_gauss("1/2-3/4i") == (checks.Fraction(1, 2), checks.Fraction(-3, 4))
    assert checks.parse_gauss("-i") == (0, -1) and checks.parse_gauss("5/3i") == (0, checks.Fraction(5, 3))
    assert checks.parse_gauss("-7") == (-7, 0)


def test_draw_is_real_bounded_and_non_pluriharmonic():
    terms = workloads.draw_upsilon(random.Random(1), 1, 0.05)
    assert checks.sup_bound(1, terms) <= 0.05
    assert any(p * q for p, q, _, c in terms if c)
    coeff = {(p, q, i): c for p, q, i, c in terms}
    assert all(coeff[(q, p, i)] == c.conjugate() for (p, q, i), c in coeff.items())


def test_qsolve_check(tmp_path, qsolve_out):
    terms, out = qsolve_out[0], _copy(qsolve_out[1], tmp_path)
    assert checks.check_qsolve(1, N, terms, out) == []

    path = os.path.join(out, "upsilon_sol.csv")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if int(r[0]) * int(r[1]))
    row[3] = repr(float(row[3]) + 1e-6)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert any("P-drift" in p for p in checks.check_qsolve(1, N, terms, out))

    _edit_json(os.path.join(out, "qcurv_solve.json"), lambda d: d.update(solvable=False))
    assert any("solvable" in p for p in checks.check_qsolve(1, N, terms, out))


@pytest.mark.parametrize("key, value, message", [
    ("kernel_dim", lambda v: v + 1, "kernel_dim"),
    ("min_nonzero_abs_eigenvalue", lambda v: 1.5 * v, "min_nonzero_abs_eigenvalue"),
    ("PG_plus_Pi_minus_I_interior", lambda v: 1e-6, "PG_plus_Pi_minus_I_interior"),
    ("G_adjoint_defect", lambda v: 1e-8, "G_adjoint_defect"),
    ("ran_orthogonality_defect", lambda v: 1e-8, "ran_orthogonality_defect"),
])
def test_chain_check(tmp_path, chain_out, key, value, message):
    terms, out = chain_out[0], _copy(chain_out[1], tmp_path)
    sup = checks.sup_bound(1, terms)
    assert checks.check_chain(1, N, sup, out) == []
    _edit_json(os.path.join(out, "parametrix_matrix.json"), lambda d: d.update({key: value(d[key])}))
    assert any(message in p for p in checks.check_chain(1, N, sup, out))


def test_chain_check_diagonal_residual(tmp_path, chain_out):
    terms, out = chain_out[0], _copy(chain_out[1], tmp_path)
    _edit_json(os.path.join(out, "parametrix_diagonal.json"),
               lambda d: d.update(PiG_sup="1/7"))
    problems = checks.check_chain(1, N, checks.sup_bound(1, terms), out)
    assert any("PiG_sup" in p for p in problems)


def _block(cache, p, q):
    return next(b for b in cache["blocks"] if (b["p"], b["q"]) == (p, q))


def _copy_element(cache):
    els = _block(cache, 1, 0)["elements"]
    els[1] = dict(els[0])


def _bad_norm(cache):
    for el in _block(cache, 2, 1)["elements"]:
        el["norm2"] = "7"


def _not_harmonic(cache):
    for el in _block(cache, 1, 1)["elements"]:
        el["poly"]["terms"].append({"t": 0, "z": [2, 0], "zbar": [2, 0], "coeff": "1"})


def _drop_element(cache):
    _block(cache, 2, 2)["elements"].pop()


@pytest.mark.parametrize("corrupt, message", [
    (_copy_element, "not orthogonal"),
    (_bad_norm, "norm2 is not exact"),
    (_not_harmonic, "not ambient-harmonic"),
    (_drop_element, "dimension"),
])
def test_basis_cache_check(tmp_path, basis_out, corrupt, message):
    cache, out = _copy(str(basis_out / "cache"), tmp_path), str(basis_out / "out")
    path = os.path.join(cache, os.listdir(cache)[0])
    report = os.path.join(out, "basis_report.json")
    assert checks.check_basis_cache(1, 4, path, report, random.Random(0)) == []
    _edit_json(path, corrupt)
    assert any(message in p for p in checks.check_basis_cache(1, 4, path, report, random.Random(0)))


def test_selftest_check(tmp_path, selftest_out):
    out = _copy(selftest_out, tmp_path)
    assert checks.check_selftest(out, (1,)) == []
    assert checks.check_selftest(out, (1, 2))  # a missing n is caught
    path = os.path.join(out, "heisenberg_selftest.json")
    _edit_json(path, lambda d: d["runs"][0]["identities"][3].update(passed=False))
    assert any("identities failed" in p for p in checks.check_selftest(out, (1,)))


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    got = tracing.self_times(spans)
    assert got["a"] == (6.0, 1) and got["b"] == (3.0, 2) and got["c"] == (1.0, 1)


def test_traced_op_records_layer_spans(tmp_path):
    spans = str(tmp_path / "spans.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced_op.py"), spans, "7", "--",
         "basis", "--n", "1", "--degree", "3", "--cache", str(tmp_path / "c"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(spans) as fh:
        dump = json.load(fh)
    names = {s[0] for s in dump["spans"]}
    assert {"cli.import", "cli.main", "harmonics.gram_schmidt", "harmonics.save",
            "reportio.write", "reportio.manifest"} <= names
    assert dump["op"] == "7" and dump["counts"]["harmonics.inner_sphere"] > 0
    assert dump["counts"]["harmonics.cache_bytes"] > 0


class _CorruptWarmup(workloads.Workload):
    """One-command operations whose warm-up outputs are corrupted before the check."""

    name = "corrupt_warmup"
    warmups = 1

    def op_inputs(self, index):
        return None

    def commands(self, index, out_dir, inputs):
        return [["heisenberg-selftest", "--sweep", "1..1", "--out", out_dir]]

    def check(self, index, inputs, out_dir):
        if index < 0:
            _edit_json(os.path.join(out_dir, "heisenberg_selftest.json"),
                       lambda d: d["runs"][0]["identities"][0].update(passed=False))
        return checks.check_selftest(out_dir, (1,))


def test_failed_warmup_makes_run_incorrect(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK_ROOT", str(tmp_path))
    monkeypatch.setitem(bench.WORKLOADS, _CorruptWarmup.name, _CorruptWarmup)
    result = bench.run(_CorruptWarmup.name, seed=1, seconds=0, trace=0, blas_threads=1)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
