import dataclasses
import filecmp
import hashlib
import json
import os
import subprocess
import sys

import pytest

from crsphere.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OBSTRUCTION,
    EXIT_OK,
    ROUNDING_FLOOR,
    RunConfig,
    build_parser,
    main,
    max_relative_decrease,
    parse_sweep,
)
from crsphere.errors import ConfigError
from crsphere.reportio import sha256_file


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def pert_file(tmp_path):
    path = tmp_path / "pert.json"
    path.write_text(json.dumps({
        "label": "test", "epsilon": 0.05,
        "terms": [{"p": 1, "q": 1, "index": 0, "coeff": 1.0}],
    }))
    return str(path)


@pytest.fixture()
def plh_file(tmp_path):
    path = tmp_path / "plh.json"
    path.write_text(json.dumps({
        "label": "pluriharmonic", "terms": [],
        "qdata_terms": [
            {"p": 1, "q": 0, "index": 0, "coeff": "1"},
            {"p": 0, "q": 1, "index": 0, "coeff": "1"},
        ],
    }))
    return str(path)


def test_max_relative_decrease_clamps_rounding():
    v = 15.940155406672053
    # a fall of 5.9e-14 relative (the size seen between float64 runs) is noise
    assert max_relative_decrease([v, v * (1 - 5.9e-14), v * (1 + 3e-15)]) == 0.0
    assert max_relative_decrease([v, v * (1 - ROUNDING_FLOOR)]) == 0.0
    assert max_relative_decrease([v, v * 1.5]) == 0.0
    # a real decrease is reported as it is
    assert max_relative_decrease([2.0, 1.5, 1.9]) == 0.25
    assert max_relative_decrease([1.0, 1.0 - 1e-9]) == pytest.approx(1e-9, rel=1e-6)
    assert max_relative_decrease([]) == 0.0
    assert max_relative_decrease([0.0, 1.0]) == 0.0


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="spectrum", n=2, degree=5, mode="float", sweep="4..8")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(command="basis", n=0)
        with pytest.raises(ConfigError):
            RunConfig(command="basis", mode="both")
        with pytest.raises(ConfigError):
            RunConfig(command="basis", obstruction_tol=-1.0)

    def test_parser_defaults_are_the_config_defaults(self):
        # one source for each default: every option a RunConfig field holds
        # defaults to that field's default, for every command
        fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        sub = next(a for a in build_parser()._actions if a.choices and "basis" in a.choices)
        for name, parser in sub.choices.items():
            for action in parser._actions:
                # --cache defaults to $CRSPHERE_CACHE; help, --verify and the
                # qcurv subaction hold no default
                if action.dest in ("cache", "help", "verify", "subaction"):
                    continue
                key = "out_dir" if action.dest == "out" else action.dest
                assert action.default == fields[key], (name, key)

    def test_parse_sweep(self):
        assert parse_sweep("10..16") == [10, 12, 14, 16]
        assert parse_sweep("1..3:1") == [1, 2, 3]
        assert parse_sweep("8,12,10") == [8, 10, 12]
        assert parse_sweep(None) is None


class TestCommands:
    def test_basis_cache_idempotent(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out = str(tmp_path / "out")
        assert run("basis", "--n", "1", "--degree", "4", "--cache", cache, "--out", out) == EXIT_OK
        first = capsys.readouterr().out
        assert "built" in first
        assert run("basis", "--n", "1", "--degree", "4", "--cache", cache, "--out", out) == EXIT_OK
        second = capsys.readouterr().out
        assert "cache hit" in second
        report = json.loads((tmp_path / "out" / "basis_report.json").read_text())
        assert report["total_dim"] == sum((d + 1) ** 2 for d in range(5))
        assert report["dim_formula_check"]

    def test_spectrum_eigentable_row(self, tmp_path):
        out = str(tmp_path / "out")
        assert run("spectrum", "--n", "1", "--degree", "4", "--out", out) == EXIT_OK
        lines = (tmp_path / "out" / "eigentable_n1_N4.csv").read_text().splitlines()
        assert lines[0] == "p,q,dim,lambda_deltab,lambda_iT,lambda_P"
        assert "1,1,3,8,0,16" in lines

    def test_spectrum_matrix_matches_diagonal_at_zero(self, tmp_path):
        pert = tmp_path / "zero.json"
        pert.write_text(json.dumps({"epsilon": 0.0, "terms": [
            {"p": 1, "q": 1, "index": 0, "coeff": 1.0}]}))
        out = str(tmp_path / "out")
        assert run("spectrum", "--n", "1", "--degree", "4",
                   "--perturbation", str(pert), "--out", out) == EXIT_OK
        rows = (tmp_path / "out" / "matrix_spectrum_n1_N4.csv").read_text().splitlines()[1:]
        eigs = sorted(float(r.split(",")[1]) for r in rows)
        from crsphere.parametrix import spectrum_diagonal
        from crsphere.spectral import Truncation, critical_gjms

        expected = spectrum_diagonal(critical_gjms(Truncation(1, 4))).eigenvalues
        assert max(abs(a - b) for a, b in zip(eigs, expected)) < 1e-12

    def test_spectrum_perturbed_kernel_is_exact(self, tmp_path, pert_file, basis8):
        # Ker P_hat is the pluriharmonic coordinates K: |K| exact zeros in one
        # cluster, then the nonzero spectrum of the generalized eigenproblem
        from crsphere.parametrix import kernel_mask, spectrum_matrix
        from crsphere.qcurvature import ContactPerturbation
        from crsphere.spectral import critical_gjms

        out = tmp_path / "out"
        assert run("spectrum", "--n", "1", "--degree", "8",
                   "--perturbation", pert_file, "--out", str(out)) == EXIT_OK
        kernel = int(kernel_mask(basis8).sum())
        rows = (out / "matrix_spectrum_n1_N8.csv").read_text().splitlines()[1:]
        eigs = [float(r.split(",")[1]) for r in rows]
        assert len(eigs) == basis8.total_dim
        assert eigs.count(0.0) == kernel
        clusters = json.loads((out / "clusters_n1_N8.json").read_text())
        assert clusters["kernel_dim"] == kernel
        assert clusters["clusters"][0] == {"value": 0.0, "multiplicity": kernel}
        assert all(c["value"] > 0 for c in clusters["clusters"][1:])

        with open(pert_file) as fh:
            pert = ContactPerturbation.from_dict(basis8, json.load(fh))
        P_d = critical_gjms(basis8).to_diag_vector(basis8)
        ref = spectrum_matrix(P_d, pert.weight())
        assert ref.kernel_dim == kernel
        ref_nonzero = ref.eigenvalues[kernel:]
        got = eigs[kernel:]
        assert max(abs(a - b) / b for a, b in zip(got, ref_nonzero)) <= 1e-12

    def test_spectrum_sweep_emits_summary(self, tmp_path):
        out = str(tmp_path / "out")
        assert run("spectrum", "--n", "1", "--degree", "4", "--sweep", "4..6",
                   "--out", out) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "stability_summary.json").read_text())
        assert [s["N"] for s in summary["sweep"]] == [4, 6]
        assert summary["max_relative_decrease_from_first"] == 0.0
        assert summary["rounding_floor"] == ROUNDING_FLOOR == 1e-12

    def test_sweep_minima_equal_to_rounding_report_no_decrease(self, tmp_path, pert_file):
        # the perturbed minima at N = 10, 12, 14 agree to ~1e-15 relative:
        # their differences are rounding, not a decrease
        out = tmp_path / "out"
        assert run("spectrum", "--n", "1", "--degree", "10", "--sweep", "10..14",
                   "--perturbation", pert_file, "--out", str(out)) == EXIT_OK
        summary = json.loads((out / "stability_summary.json").read_text())
        mins = [s["min_nonzero_abs"] for s in summary["sweep"]]
        assert len(mins) == 3 and max(mins) - min(mins) <= 1e-12 * mins[0]
        assert summary["max_relative_decrease_from_first"] == 0.0
        assert summary["rounding_floor"] == 1e-12

    def test_parametrix_check(self, tmp_path, pert_file):
        out = str(tmp_path / "out")
        assert run("parametrix-check", "--n", "1", "--degree", "6",
                   "--perturbation", pert_file, "--out", out) == EXIT_OK
        diag = json.loads((tmp_path / "out" / "parametrix_diagonal.json").read_text())
        assert diag["PG_plus_Pi_minus_I_sup"] == "0"
        assert diag["R0_rank"] == 1
        mat = json.loads((tmp_path / "out" / "parametrix_matrix.json").read_text())
        assert mat["A0_residual"] <= 1e-12
        assert mat["PG_plus_Pi_minus_I_interior"] <= 1e-8
        assert mat["upsilon_sup_bound"] >= mat["upsilon_sup_sampled"] > 0

    def test_options(self):
        # every command takes exactly these options; argparse rejects any other
        # with exit code 2
        sub = next(a for a in build_parser()._actions if a.choices and "basis" in a.choices)
        for name, parser in sub.choices.items():
            opts = {o for a in parser._actions for o in a.option_strings}
            assert opts == {"-h", "--help", "--n", "--degree", "--taylor-depth", "--mode",
                            "--perturbation", "--out", "--cache", "--sweep", "--seed", "--mu",
                            "--cap", "--obstruction-tol", "--verify"}, name

    def test_qcurv_flow(self, tmp_path, pert_file):
        out = str(tmp_path / "out")
        assert run("qcurv", "compute", "--n", "1", "--degree", "8",
                   "--perturbation", pert_file, "--out", out) == EXIT_OK
        comp = json.loads((tmp_path / "out" / "qcurv_compute.json").read_text())
        assert comp["total_q_vanishes"]
        assert comp["upsilon_sup_bound"] >= comp["upsilon_sup_sampled"] > 0
        assert run("qcurv", "check", "--n", "1", "--degree", "8",
                   "--perturbation", pert_file, "--out", out) == EXIT_OK
        assert run("qcurv", "solve", "--n", "1", "--degree", "8",
                   "--perturbation", pert_file, "--out", out) == EXIT_OK
        solve = json.loads((tmp_path / "out" / "qcurv_solve.json").read_text())
        assert solve["solvable"] and solve["residual"] <= 1e-8
        assert (tmp_path / "out" / "upsilon_sol.csv").exists()

    def test_qcurv_floating_datum_in_standard_frame(self, tmp_path):
        # a floating Q-datum with no perturbation takes the weighted route; the
        # frame builds its own (zero) multiplier and weight W = I
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"terms": [], "qdata_terms": [
            {"p": 1, "q": 1, "index": 0, "coeff": 16.5}]}))
        for sub in ("compute", "solve"):
            assert run("qcurv", sub, "--n", "1", "--degree", "4", "--perturbation",
                       str(path), "--out", str(tmp_path / sub)) == EXIT_OK
        solve = json.loads((tmp_path / "solve" / "qcurv_solve.json").read_text())
        assert solve["notes"]["mode"] == "weighted_closed_form"
        assert solve["residual"] <= 1e-12
        assert solve["upsilon_sol"] == [
            {"p": 1, "q": 1, "index": 0, "re": -16.5 / 16, "im": 0.0}]

    @pytest.mark.parametrize("argv", [
        ("qcurv", "solve"), ("qcurv", "compute"), ("parametrix-check",), ("spectrum", "--mode", "float"),
    ])
    def test_taylor_depth_past_the_float_range_of_the_factorial(self, tmp_path, pert_file, argv):
        # at depth 170 and above (K+1)! is no float; the tail bound, on the
        # option or from the perturbation file, still comes out finite
        out = str(tmp_path / "out")
        assert run(*argv, "--n", "1", "--degree", "4", "--taylor-depth", "200",
                   "--perturbation", pert_file, "--out", out) == EXIT_OK
        data = json.loads(open(pert_file).read())
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(dict(data, taylor_depth=200)))
        assert run(*argv, "--n", "1", "--degree", "4", "--perturbation", str(path),
                   "--out", out) == EXIT_OK

    def test_qcurv_obstruction_exit_code(self, tmp_path, plh_file):
        out = str(tmp_path / "out")
        assert run("qcurv", "check", "--n", "1", "--degree", "6",
                   "--perturbation", plh_file, "--out", out) == EXIT_OBSTRUCTION
        assert run("qcurv", "solve", "--n", "1", "--degree", "6",
                   "--perturbation", plh_file, "--out", out) == EXIT_OBSTRUCTION

    def test_selftest(self, tmp_path):
        out = str(tmp_path / "out")
        assert run("heisenberg-selftest", "--n", "1", "--out", out) == EXIT_OK
        rep = json.loads((tmp_path / "out" / "heisenberg_selftest.json").read_text())
        assert rep["passed"]
        assert {r["name"] for r in rep["runs"][0]["identities"]} >= {
            "group_axioms", "commutation_relation", "kohn_identity",
            "levi_normalization", "adjoint_rules", "pbw_soundness",
        }
        # the serialized model operators round-trip
        from crsphere.heisenberg import LeftInvariantOp, box_b

        op = LeftInvariantOp.from_jsonable(rep["runs"][0]["operators"]["box_b"])
        assert op == box_b(1)

    def test_linalg_error_exit_code(self, tmp_path, monkeypatch):
        import numpy as np

        from crsphere import cli

        def fail(cfg, manifest):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setitem(cli.COMMANDS, "spectrum", fail)
        assert run("spectrum", "--out", str(tmp_path / "o")) == EXIT_NUMERICAL

    def test_coefficient_pair_reads_like_the_number(self, tmp_path):
        # a [re, im] coefficient is the same datum as the plain number
        reports = []
        for name, coeff in (("number", 16.0), ("pair", [16.0, 0.0])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"terms": [], "qdata_terms": [
                {"p": 1, "q": 1, "index": 0, "coeff": coeff}]}))
            out = tmp_path / name
            assert run("qcurv", "compute", "--n", "1", "--degree", "4",
                       "--perturbation", str(path), "--out", str(out)) == EXIT_OK
            reports.append((out / "qcurv_compute.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("key", ["qdata_terms", "terms"])
    @pytest.mark.parametrize("term", [
        {"p": 1, "q": 1, "coeff": True},
        {"p": 1, "q": 1, "coeff": {}},
        {"p": 1, "q": 1, "coeff": [1]},
        {"p": 1, "q": 1, "coeff": "x"},
        {"q": 1, "coeff": 1.0},
        {"p": 1, "coeff": 1.0},
        {"p": [1], "q": 1, "coeff": 1.0},
        {"p": 1, "q": 1, "index": "0", "coeff": 1.0},
    ])
    def test_bad_coefficient_term_exit_code(self, tmp_path, key, term):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"terms": [], key: [term]}))
        assert run("qcurv", "compute", "--n", "1", "--degree", "4", "--perturbation",
                   str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    @pytest.mark.parametrize("payload", [
        {"terms": [], "epsilon": "abc"},
        {"terms": [], "epsilon": [1, 2]},
        {"terms": [], "epsilon": float("nan")},
        {"terms": [], "taylor_depth": "12"},
        {"terms": [], "taylor_depth": True},
        {"terms": [], "taylor_depth": 0},
        {"terms": [], "normalize_sup": 1},
        {"terms": 5},
        {"terms": [], "qdata_terms": {"p": 1}},
        [1, 2],
        {"epsilom": 0.05, "terms": [{"p": 1, "q": 1, "index": 0, "coeff": 1.0}]},
    ])
    def test_bad_perturbation_file_exit_code(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run("qcurv", "compute", "--n", "1", "--degree", "4", "--perturbation",
                   str(path), "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--sweep", "x..y"),
        ("spectrum", "--sweep", "10..16:0"),
        ("spectrum", "--sweep", "4..2"),
        ("spectrum", "--sweep", ","),
        ("spectrum", "--mu", "abc"),
        ("spectrum", "--mu", "1/0"),
        ("heisenberg-selftest", "--sweep", "1..q"),
        ("heisenberg-selftest", "--sweep", "0..1"),
        ("spectrum", "--mu", "1+2i"),
    ])
    def test_bad_flag_exit_code(self, tmp_path, capsys, argv):
        assert run(*argv, "--degree", "2", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_obstruction_tol_must_be_finite_and_positive(self, tmp_path, capsys, pert_file, tol):
        # with NaN every datum reads as obstructed, with inf none does
        assert run("qcurv", "solve", "--n", "1", "--degree", "4", "--perturbation", pert_file,
                   f"--obstruction-tol={tol}", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: --obstruction-tol")

    def test_bad_config_exit_code(self, tmp_path):
        assert run("basis", "--n", "0", "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert run("qcurv", "check", "--n", "1", "--degree", "4",
                   "--perturbation", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o2")) == EXIT_CONFIG


def test_exact_commands_load_neither_numpy_nor_scipy(tmp_path):
    # importing the CLI, building a basis and the model self-test stay free of
    # the dense libraries and of OpenSSL (the manifest takes the builtin
    # SHA-256); only the self-test loads the Heisenberg model; the floating
    # layers and the model still resolve from the package
    script = (
        "import sys\n"
        "import crsphere.cli\n"
        "def dense():\n"
        "    return sorted(m for m in ('numpy', 'scipy', '_hashlib') if m in sys.modules)\n"
        "assert dense() == [], dense()\n"
        "assert 'crsphere.heisenberg' not in sys.modules\n"
        f"out = {str(tmp_path)!r}\n"
        "assert crsphere.cli.main(['basis', '--n', '1', '--degree', '3', '--out', out + '/b']) == 0\n"
        "assert 'crsphere.heisenberg' not in sys.modules\n"
        "assert crsphere.cli.main(['heisenberg-selftest', '--n', '1', '--out', out + '/h']) == 0\n"
        "assert 'crsphere.heisenberg' in sys.modules\n"
        "assert dense() == [], dense()\n"
        "import crsphere\n"
        "assert callable(crsphere.build_chain_matrix) and callable(crsphere.solve_zero_q)\n"
        "assert callable(crsphere.model_identity_suite)\n"
        "assert 'numpy' in sys.modules and '_hashlib' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_floating_commands_load_no_scipy(tmp_path, pert_file):
    # the floating layers (sparse multiplier, weight, chain, spectrum, zero-Q
    # solve) run on numpy alone, without numpy.random (the sampled sup draws
    # from the standard library) and without OpenSSL
    script = (
        "import sys\n"
        "import crsphere.cli\n"
        f"out, pert = {str(tmp_path)!r}, {pert_file!r}\n"
        "def extra():\n"
        "    return sorted(m for m in ('numpy.random', '_hashlib') if m in sys.modules)\n"
        "common = ['--n', '1', '--degree', '6', '--perturbation', pert]\n"
        "assert crsphere.cli.main(['qcurv', 'solve', *common, '--out', out + '/q']) == 0\n"
        "assert extra() == [], extra()\n"
        "assert crsphere.cli.main(['parametrix-check', *common, '--out', out + '/c']) == 0\n"
        "assert extra() == [], extra()\n"
        "assert crsphere.cli.main(['spectrum', '--sweep', '4..6', *common,\n"
        "                          '--out', out + '/s']) == 0\n"
        "assert extra() == [], extra()\n"
        "assert 'numpy' in sys.modules\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    solve = json.loads((tmp_path / "q" / "qcurv_solve.json").read_text())
    assert solve["notes"]["weight_form"] == "operator"
    assert 0 < solve["notes"]["cg_iterations_max"] <= solve["notes"]["cg_iteration_cap"]


def test_lazy_exports_resolve():
    # every name the package exports on first use exists in its module
    import crsphere

    for names in crsphere._LAZY.values():
        for name in names:
            assert getattr(crsphere, name) is not None, name


# sha256 of the exact outputs as first recorded; any change to the exact
# layer that alters a byte of them fails here
PINNED_SHA256 = {
    "basis_n1_N6_v1_exact.json":
        "362776f826d8ad0fac42db7f78ea06567aaadd21e93bb55cd6581c896a2529e4",
    "basis_n1_N8_v1_exact.json":
        "cc85255ecc7d5dcdae4b4d2f8957f8923f2c549023e5e267ebad96ac97419a7f",
    "basis_n2_N3_v1_exact.json":
        "13f72deed3b663bfea606e0d4e60e7e5f544807591706a0170ed253c77f37b64",
    # the two bases of the exact_cold benchmark workload
    "basis_n2_N5_v1_exact.json":
        "8b743ba4b1bbf92051a0abae763fd88abca1a32caa46e8044dece64bbedb1caf",
    "basis_n3_N4_v1_exact.json":
        "06e0782f2870872f47432134964651956a2a9b9a055e5247b019d91038724526",
    "heisenberg_selftest.json":
        "b269be1ed951b663d7352e7fd9e8bfa1b2543b618518940779355dffd116b725",
}


def test_exact_outputs_are_pinned(tmp_path):
    cache, out = tmp_path / "cache", tmp_path / "out"
    for n, degree in (("1", "6"), ("1", "8"), ("2", "3"), ("2", "5"), ("3", "4")):
        assert run("basis", "--n", n, "--degree", degree, "--cache", str(cache),
                   "--out", str(out)) == EXIT_OK
    assert run("heisenberg-selftest", "--sweep", "1..2", "--out", str(out)) == EXIT_OK
    paths = [cache / name for name in PINNED_SHA256 if name.startswith("basis_")]
    paths.append(out / "heisenberg_selftest.json")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == PINNED_SHA256


class TestDeterminismAndManifest:
    def _emit(self, tmp_path, name):
        out = str(tmp_path / name)
        code = run("spectrum", "--n", "1", "--degree", "5", "--mode", "exact",
                   "--seed", "3", "--out", out)
        assert code == EXIT_OK
        return out

    def test_byte_identical_runs(self, tmp_path):
        out1 = self._emit(tmp_path, "a")
        out2 = self._emit(tmp_path, "b")
        for fname in os.listdir(out1):
            if fname == "manifest.json":
                continue  # carries timestamps by design
            assert filecmp.cmp(
                os.path.join(out1, fname), os.path.join(out2, fname), shallow=False
            ), fname
        # the manifests agree on every hash
        m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert m1["emitted"] == m2["emitted"]

    def test_manifest_lists_every_file(self, tmp_path):
        out = self._emit(tmp_path, "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        listed = {e["path"] for e in manifest["emitted"]}
        on_disk = {f for f in os.listdir(out) if f != "manifest.json"}
        assert listed == on_disk

    def test_verify_detects_tampering(self, tmp_path):
        out = self._emit(tmp_path, "d")
        assert run("spectrum", "--out", out, "--verify") == EXIT_OK
        target = tmp_path / "d" / "eigentable_n1_N5.csv"
        target.write_text(target.read_text() + "tampered\n")
        assert run("spectrum", "--out", out, "--verify") == EXIT_NUMERICAL

    def test_manifest_records_the_blas_pool_variables(self, tmp_path, monkeypatch):
        # what the process saw, null when unset; outside the hashed payloads
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "e"
        assert run("basis", "--n", "1", "--degree", "2", "--out", str(out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_env"] == {"OPENBLAS_NUM_THREADS": "3",
                                        "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        assert [e["path"] for e in manifest["emitted"]] == ["basis_report.json"]

    def test_manifest_digests_are_sha256(self, tmp_path, pert_file):
        # the builtin digest the manifest takes is SHA-256 as hashlib computes
        # it, for emitted and input files, and across the 64-KiB read blocks
        out = tmp_path / "g"
        assert run("parametrix-check", "--n", "1", "--degree", "4", "--perturbation", pert_file,
                   "--out", str(out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["emitted"]
        for entry in manifest["emitted"]:
            assert entry["sha256"] == hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        with open(pert_file, "rb") as fh:
            assert manifest["input_hashes"] == {"pert.json": hashlib.sha256(fh.read()).hexdigest()}
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(range(256)) * 1000 + b"tail")
        assert sha256_file(str(big)) == hashlib.sha256(big.read_bytes()).hexdigest()

    def test_verify_without_manifest(self, tmp_path):
        assert run("spectrum", "--out", str(tmp_path / "nope"), "--verify") == EXIT_CONFIG


def shaped_terms(n, seed, sup_bound):
    """Real (p, q, index, coeff) terms of the benchmark's shape with sup bound sup_bound."""
    import random

    from crsphere.harmonics import dim_hpq

    rng = random.Random(seed)
    terms = []
    for p, q in ((1, 1), (2, 1), (1, 0), (2, 0)):
        i = rng.randrange(dim_hpq(n, p, q))
        c = complex(rng.uniform(-1, 1), 0.0 if p == q else rng.uniform(-1, 1))
        terms.append((p, q, i, c))
        if p != q:
            terms.append((q, p, i, c.conjugate()))
    bound = sum(abs(c) * dim_hpq(n, p, q) ** 0.5 for p, q, _, c in terms)
    return [(p, q, i, c * sup_bound / bound) for p, q, i, c in terms]


def perturbation_file(path, terms, **extra):
    path.write_text(json.dumps({
        "label": "drawn", "terms": [{"p": p, "q": q, "index": i, "coeff": [c.real, c.imag]}
                                    for p, q, i, c in terms], **extra}))
    return str(path)


@pytest.fixture(scope="module")
def cache_n2_N8(tmp_path_factory, basis_n2_N8):
    cache = tmp_path_factory.mktemp("cache_n2_N8")
    basis_n2_N8.save(str(cache))
    return str(cache)


class TestQcurvAtN2:
    """The zero-Q criterion through the CLI at n = 2, N = 8 (D = 2079)."""

    def test_round_trip(self, tmp_path, cache_n2_N8, basis_n2_N8):
        from crsphere.spectral import SpectralFunction, critical_gjms

        terms = shaped_terms(2, 7, 0.05)
        out = tmp_path / "out"
        assert run("qcurv", "solve", "--n", "2", "--degree", "8", "--cache", cache_n2_N8,
                   "--perturbation", perturbation_file(tmp_path / "p.json", terms),
                   "--out", str(out)) == EXIT_OK
        solve = json.loads((out / "qcurv_solve.json").read_text())
        assert solve["solvable"] and solve["notes"]["weight_form"] == "operator"
        assert "condition" not in solve and solve["condition_bound"] > 1
        assert 0 < solve["weight_min_eigenvalue_bound"] < 1
        assert solve["residual"] <= 1e-8 and solve["final_q_norm"] <= 1e-6
        sol = [(t["p"], t["q"], t["index"], complex(t["re"], t["im"]))
               for t in solve["upsilon_sol"]]
        total = SpectralFunction.from_terms(basis_n2_N8, terms + sol)
        assert total.apply_diagonal(critical_gjms(basis_n2_N8)).norm() <= 1e-7

    def test_pluriharmonic_datum_is_obstructed(self, tmp_path, cache_n2_N8):
        # a floating pluriharmonic Q-datum in a perturbed frame: the weighted
        # obstruction (through the Cholesky factor of W_KK) rejects it
        path = perturbation_file(tmp_path / "p.json", shaped_terms(2, 8, 0.05), qdata_terms=[
            {"p": 1, "q": 0, "index": 1, "coeff": 1.0}, {"p": 0, "q": 1, "index": 1, "coeff": 1.0}])
        out = tmp_path / "out"
        assert run("qcurv", "solve", "--n", "2", "--degree", "8", "--cache", cache_n2_N8,
                   "--perturbation", path, "--out", str(out)) == EXIT_OBSTRUCTION
        solve = json.loads((out / "qcurv_solve.json").read_text())
        assert not solve["solvable"] and solve["obstruction_norm"] > 1


def test_qcurv_round_trip_at_n3(tmp_path, basis_n3_N4):
    # the zero-Q solve and the total Q through the CLI at n = 3, N = 4: the
    # datum plus the solution lies in Ker P, and the total Q of the datum vanishes
    from crsphere.spectral import SpectralFunction, critical_gjms

    cache = tmp_path / "cache"
    basis_n3_N4.save(str(cache))
    terms = shaped_terms(3, 11, 0.05)
    path = perturbation_file(tmp_path / "p.json", terms)
    argv = ("--n", "3", "--degree", "4", "--cache", str(cache), "--perturbation", path)
    assert run("qcurv", "solve", *argv, "--out", str(tmp_path / "solve")) == EXIT_OK
    assert run("qcurv", "compute", *argv, "--out", str(tmp_path / "compute")) == EXIT_OK
    solve = json.loads((tmp_path / "solve" / "qcurv_solve.json").read_text())
    assert solve["solvable"] and solve["residual"] <= 1e-8 and solve["final_q_norm"] <= 1e-6
    sol = [(t["p"], t["q"], t["index"], complex(t["re"], t["im"])) for t in solve["upsilon_sol"]]
    total = SpectralFunction.from_terms(basis_n3_N4, terms + sol)
    assert total.apply_diagonal(critical_gjms(basis_n3_N4)).norm() <= 1e-7
    compute = json.loads((tmp_path / "compute" / "qcurv_compute.json").read_text())
    assert compute["total_q_vanishes"] and abs(compute["total_q"]) <= 1e-8


@pytest.mark.parametrize("argv", [("qcurv", "solve"), ("qcurv", "check"), ("parametrix-check",),
                                  ("spectrum", "--mode", "float"), ("qcurv", "compute")])
def test_large_perturbation_exits_numerical(tmp_path, argv):
    # epsilon 1e3 puts e^(2 ||M||) of the weight's bounds past the float range:
    # the weight, or the conformal factor before it is applied, is refused
    # (exit 4), not left to overflow
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"label": "big", "epsilon": 1e3,
                                "terms": [{"p": 1, "q": 1, "index": 0, "coeff": 1.0}]}))
    assert run(*argv, "--n", "1", "--degree", "4", "--perturbation", str(path),
               "--out", str(tmp_path / "out")) == EXIT_NUMERICAL


@pytest.mark.parametrize("argv", [("parametrix-check",), ("qcurv", "solve"),
                                  ("spectrum", "--mode", "float")])
def test_inexact_p_exits_numerical(tmp_path, argv):
    # at n = 14, N = 2 the eigenvalue of P on the block (1, 1) is not a
    # float64: the float layer would run on a rounded P that no bound
    # charges, so every command that reads P_d exits 4
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"label": "small", "epsilon": 1.0,
                                "terms": [{"p": 1, "q": 1, "index": 0, "coeff": 0.05}]}))
    assert run(*argv, "--n", "14", "--degree", "2", "--cache", str(tmp_path / "cache"),
               "--perturbation", str(path), "--out", str(tmp_path / "out")) == EXIT_NUMERICAL


def test_non_finite_total_q_exits_numerical(tmp_path):
    # at epsilon 1e30 the conformal factor would overflow to a total Q of nan:
    # it is refused before it is applied, exit 4
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"label": "huge", "epsilon": 1e30,
                                "terms": [{"p": 1, "q": 1, "index": 0, "coeff": 1.0}]}))
    assert run("qcurv", "compute", "--n", "1", "--degree", "4", "--perturbation", str(path),
               "--out", str(tmp_path / "out")) == EXIT_NUMERICAL


def test_parametrix_check_runs_no_dense_eigensolver(tmp_path, pert_file, monkeypatch):
    # the chain certifies its smallest nonzero eigenvalue by a block
    # iteration: with numpy's dense symmetric eigensolvers refusing to run,
    # parametrix-check exits 0 and writes every key it writes with them
    import numpy as np

    argv = ["parametrix-check", "--n", "1", "--degree", "6", "--perturbation", pert_file]
    assert run(*argv, "--out", str(tmp_path / "ref")) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a dense symmetric eigensolver was called")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_OK
    ref, got = (json.loads((tmp_path / d / "parametrix_matrix.json").read_text())
                for d in ("ref", "out"))
    assert set(got) == set(ref)
    lo, hi = got["min_nonzero_abs_eigenvalue_enclosure"]
    assert lo <= got["min_nonzero_abs_eigenvalue"] <= hi
    assert got["min_nonzero_abs_eigenvalue_group_size"] == 3  # the block (1, 1) at n = 1


def test_parametrix_nan_inverse_exits_numerical(tmp_path, pert_file, monkeypatch):
    # no factorization gates the chain's columns K of W and W^{-1}: they come
    # from one pass of the powers of M, certified a priori, and a pass whose
    # result is not finite exits 4
    import numpy as np

    from crsphere import parametrix

    apply = parametrix.taylor_exp_apply

    def nan_apply(M, K, X, negated=False, overwrite_x=False):
        out = apply(M, K, X, negated, overwrite_x)
        (out[0] if negated else out)[0] = np.nan
        return out

    monkeypatch.setattr(parametrix, "taylor_exp_apply", nan_apply)
    assert run("parametrix-check", "--n", "1", "--degree", "6", "--perturbation", pert_file,
               "--out", str(tmp_path / "out")) == EXIT_NUMERICAL


@pytest.mark.parametrize("routine", ["solve"])
def test_parametrix_failed_dense_solve_exits_numerical(tmp_path, pert_file, monkeypatch,
                                                      capsys, routine):
    # no factorization gates the chain's dense solves (W for the columns K
    # of W^{-1}, W_KK, the holomorphic block, the Woodbury block): numpy's
    # LinAlgError from a failed one exits 4
    import numpy as np

    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, routine, fail)
    assert run("parametrix-check", "--n", "1", "--degree", "6", "--perturbation", pert_file,
               "--out", str(tmp_path / "out")) == EXIT_NUMERICAL
    assert calls and capsys.readouterr().err.startswith("numerical failure:")


def pluriharmonic_dim(n, N):
    """|K|: the summed dimensions of the blocks p q = 0 of degree p + q <= N."""
    from crsphere.harmonics import dim_hpq

    return sum(dim_hpq(n, p, d - p) for d in range(N + 1) for p in range(d + 1)
               if p * (d - p) == 0)


def check_perturbed_spectrum(out, cache, n, N, pert_path):
    """The kernel of a spectrum --perturbation run is |K|, its smallest nonzero
    eigenvalue that of the dense pencil (spectrum_matrix); returns that value."""
    from crsphere.harmonics import HarmonicBasis
    from crsphere.parametrix import min_nonzero_abs_eigenvalue, spectrum_matrix
    from crsphere.qcurvature import ContactPerturbation
    from crsphere.spectral import critical_gjms

    kernel = pluriharmonic_dim(n, N)
    assert json.loads((out / f"clusters_n{n}_N{N}.json").read_text())["kernel_dim"] == kernel
    rows = (out / f"matrix_spectrum_n{n}_N{N}.csv").read_text().splitlines()[1:]
    eigs = [float(r.split(",")[1]) for r in rows]
    assert eigs.count(0.0) == kernel
    got = min(abs(v) for v in eigs if v != 0.0)
    basis, hit = HarmonicBasis.load_or_build(n, N, cache_dir=cache)
    assert hit
    with open(pert_path) as fh:
        weight = ContactPerturbation.from_dict(basis, json.load(fh)).weight()
    ref = spectrum_matrix(critical_gjms(basis).to_diag_vector(basis), weight)
    assert ref.kernel_dim == kernel
    ref = min_nonzero_abs_eigenvalue(ref)
    assert abs(got - ref) <= 1e-12 * ref
    return got


def test_perturbed_spectrum_sweep_at_n2(tmp_path):
    cache, out = str(tmp_path / "cache"), tmp_path / "out"
    pert = perturbation_file(tmp_path / "p.json", shaped_terms(2, 11, 0.1))
    assert run("spectrum", "--mode", "float", "--n", "2", "--sweep", "4..6:1", "--cache", cache,
               "--perturbation", pert, "--out", str(out)) == EXIT_OK
    sweep = json.loads((out / "stability_summary.json").read_text())["sweep"]
    assert [s["N"] for s in sweep] == [4, 5, 6]
    for s in sweep:
        assert s["kernel_dim"] == pluriharmonic_dim(2, s["N"])
        assert s["min_nonzero_abs"] == check_perturbed_spectrum(out, cache, 2, s["N"], pert)


def test_perturbed_spectrum_at_n3(tmp_path, basis_n3_N4):
    cache, out = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    basis_n3_N4.save(str(cache))
    pert = perturbation_file(tmp_path / "p.json", shaped_terms(3, 12, 0.1))
    assert run("spectrum", "--mode", "float", "--n", "3", "--degree", "4", "--cache", str(cache),
               "--perturbation", pert, "--out", str(out)) == EXIT_OK
    check_perturbed_spectrum(out, str(cache), 3, 4, pert)


def test_qcurv_weight_failures_exit_numerical(tmp_path, monkeypatch):
    from crsphere.galerkin import InnerProductWeight

    # a lower eigenvalue bound <= 0: a = 2.5 is past the root -2.18 of T_5
    big = perturbation_file(tmp_path / "big.json", shaped_terms(1, 3, 1.25), taylor_depth=5)
    assert run("qcurv", "solve", "--n", "1", "--degree", "6", "--perturbation", big,
               "--out", str(tmp_path / "big")) == EXIT_NUMERICAL
    # a breakdown of conjugate gradients on W_KK: an indefinite weight operator
    apply = InnerProductWeight.apply
    monkeypatch.setattr(InnerProductWeight, "apply", lambda self, x: -apply(self, x))
    small = perturbation_file(tmp_path / "small.json", shaped_terms(1, 3, 0.05))
    assert run("qcurv", "solve", "--n", "1", "--degree", "6", "--perturbation", small,
               "--out", str(tmp_path / "small")) == EXIT_NUMERICAL
