"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import filecmp
import json
import os
import random
import time

import pytest

from crsphere.cli import EXIT_OK, main as cli_main
from crsphere.errors import ObstructionError
from crsphere.harmonics import dim_hpq
from crsphere.heisenberg import model_identity_suite
from crsphere.parametrix import (
    build_chain_diagonal,
    build_chain_matrix,
    kernel_mask,
    min_nonzero_abs_eigenvalue,
    nonzero_eigenvalues,
    spectrum_diagonal,
    spectrum_matrix,
)
from crsphere.qcurvature import (
    ContactPerturbation,
    QData,
    qhat,
    solvability_check,
    solve_zero_q,
    total_q,
)
from crsphere.scalars import QI
from crsphere.spectral import (
    SpectralFunction,
    Truncation,
    critical_gjms,
    l_mu,
)
from frame_oracle import certify_eigentables

DIAGONAL_ZERO_KEYS = [
    "PG_plus_Pi_minus_I",
    "GP_plus_Pi_minus_I",
    "PGInf_plus_PiInf_minus_I",
    "R_inf",
    "PiInf_sq_minus_PiInf",
    "Pi_minus_PiInf",
    "G_minus_GInf",
    "Pi_minus_pluriharmonic",
    "PiG",
    "GPi",
    "PPi",
    "PiP",
    "R0_minus_SSbar",
    "A0_minus_closed_form",
    "PiInf_minus_S_Sbar_combination",
]


def announce(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def bounded_perturbation(basis, terms, sup_bound, seed=0):
    f = SpectralFunction.from_terms(basis, terms).realized()
    sup = f.sup_norm_estimate(seed=seed)
    scale = sup_bound / sup if sup > 0 else 0.0
    return ContactPerturbation(basis, f.scale(scale), taylor_depth=12, label="acceptance")


def test_criterion_1_exact_model_identities():
    """Group axioms, frame identities, adjoints, Levi form: zero residual, n in {1,2,3}."""
    t0 = time.monotonic()
    required = {
        "group_axioms",
        "dilation_homomorphism",
        "left_invariance",
        "commutation_relation",
        "reeb_centrality",
        "adjoint_rules",
        "levi_normalization",
        "kohn_identity",
        "pbw_soundness",
        "homogeneity",
    }
    for n in (1, 2, 3):
        records = model_identity_suite(n, seed=2026)
        names = {r["name"] for r in records}
        assert required <= names
        failures = [r for r in records if not r["passed"]]
        assert not failures, failures
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    announce(1, f"exact model identities for n in {{1,2,3}} in {elapsed:.2f}s")


def test_criterion_2_eigentable_certification(basis8):
    """Frame oracle reproduces the tables exactly at n=1, N=8; L_1 and L_-1 kernels."""
    assert certify_eigentables(basis8) == []
    # closed forms certified: 4pq + 2(p+q) and 2(q-p) on every block
    from crsphere.spectral import reeb_t, sublaplacian

    db, it = sublaplacian(basis8), reeb_t(basis8)
    for (p, q) in db.blocks():
        assert db.value(p, q) == 4 * p * q + 2 * (p + q)
        assert it.value(p, q) == 2 * (q - p)
    L1, Lm1 = l_mu(basis8, 1), l_mu(basis8, -1)
    for (p, q) in L1.blocks():
        if q == 0:
            assert L1.value(p, q) == 0
        if p == 0:
            assert Lm1.value(p, q) == 0
    announce(2, "frame oracle certifies the eigentables exactly at n=1, N=8")


def test_criterion_3_kernel_structure():
    """Ker P = pluriharmonic blocks, Pi = pi exactly, multiplicities by block dim."""
    for n, N in ((1, 12), (2, 8)):
        tr = Truncation(n, N)
        P = critical_gjms(tr)
        for (p, q), v in P.table.items():
            assert (v == 0) == (p * q == 0)
        chain = build_chain_diagonal(tr)
        d = chain.diagnostics.entries
        assert d["Pi_minus_pluriharmonic_rank"] == 0
        assert d["Pi_minus_pluriharmonic_sup"] == 0
    sp = spectrum_diagonal(critical_gjms(Truncation(1, 12)))
    for cluster in sp.multiplicity_clusters:
        if cluster.value == 0.0:
            continue
        expected = sum(dim_hpq(1, p, q) for (p, q) in cluster.blocks)
        assert cluster.multiplicity == expected
    sixteen = [c for c in sp.multiplicity_clusters if abs(c.value - 16) < 1e-12]
    assert len(sixteen) == 1 and sixteen[0].multiplicity == 3
    announce(3, "kernel = pluriharmonic blocks, Pi = pi (rank 0), multiplicity of 16 is 3")


def test_criterion_4_chain_closure_exact():
    """The full parametrix chain closes exactly at n=1, N=16 within 60 seconds."""
    t0 = time.monotonic()
    chain = build_chain_diagonal(Truncation(1, 16))
    d = chain.diagnostics.entries
    for key in DIAGONAL_ZERO_KEYS:
        assert d[f"{key}_sup"] == 0, key
        assert d[f"{key}_rank"] == 0, key
    assert d["R0_rank"] == 1
    assert d["R0_idempotent"] and d["A0_method"] == "closed_form"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(4, f"exact chain closure at n=1, N=16 in {elapsed:.2f}s "
                "(R0 = S Sbar rank 1, A0 = I - R0/2, Pi_oo = Pi, G_oo = G)")


def test_criterion_5_perturbed_regime(basis16):
    """Matrix chain at n=1, N=12, |Upsilon| <= 0.1; eigenvalue stability to N=16."""
    terms = [(1, 1, 0, QI(1)), (2, 1, 0, QI(1, 1)), (1, 2, 0, QI(1, -1))]
    basis12 = basis16.restrict(12)
    pert12 = bounded_perturbation(basis12, terms, 0.1, seed=4)
    assert pert12.sup_estimate() <= 0.1 + 1e-9
    weight12 = pert12.weight()
    chain = build_chain_matrix(basis12, weight12)
    d = chain.diagnostics.entries
    assert d["PG_plus_Pi_minus_I_interior"] <= 1e-8
    assert d["P_hat_adjoint_defect"] <= 1e-10
    assert d["G_adjoint_defect"] <= 1e-10
    assert d["Pi_adjoint_defect"] <= 1e-10
    assert d["ran_orthogonality_defect"] <= 1e-10

    # the N=12 sweep point is the chain's own: same perturbation, same weight
    minima = []
    for N in (10, 12, 14, 16):
        if N == 12:
            lam_min = d["min_nonzero_abs_eigenvalue"]
            # the Schur-complement route against the generalized eigensolver
            P_d = critical_gjms(basis12).to_diag_vector(basis12)
            ref = min_nonzero_abs_eigenvalue(spectrum_matrix(P_d, weight12))
            assert abs(lam_min - ref) <= 1e-12 * ref, (lam_min, ref)
        else:
            basisN = basis16.restrict(N)
            weightN = bounded_perturbation(basisN, terms, 0.1, seed=4).weight()
            P_d = critical_gjms(basisN).to_diag_vector(basisN)
            lam_min = nonzero_eigenvalues(P_d, weightN, kernel_mask(basisN))[0]
        minima.append(lam_min)
    drop = max((minima[0] - m) / minima[0] for m in minima)
    assert drop < 0.10, f"smallest nonzero eigenvalue dropped {drop:.2%}: {minima}"
    announce(5, f"perturbed chain residuals within tolerance; min |eigenvalue| over "
                f"N in {{10,12,14,16}} moved {drop:+.2%} (limit 10%)")


def test_criterion_5_chain_gates_at_n2(basis_n2_N8):
    """Matrix chain at n=2, N=6, |Upsilon| <= 0.1: the criterion-5 gates and the spectral window."""
    t0 = time.monotonic()
    basis = basis_n2_N8.restrict(6)
    terms = [(1, 1, 0, QI(1)), (2, 1, 0, QI(1, 1)), (1, 2, 0, QI(1, -1))]
    pert = bounded_perturbation(basis, terms, 0.1, seed=4)
    weight = pert.weight()
    d = build_chain_matrix(basis, weight).diagnostics.entries
    assert d["PG_plus_Pi_minus_I_interior"] <= 1e-8
    assert d["P_hat_adjoint_defect"] <= 1e-10
    assert d["G_adjoint_defect"] <= 1e-10
    assert d["Pi_adjoint_defect"] <= 1e-10
    assert d["ran_orthogonality_defect"] <= 1e-10
    assert d["A0_residual"] <= 1e-12
    assert d["kernel_dim"] == sum(dim_hpq(2, p, k - p) for k in range(7) for p in range(k + 1)
                                  if p * (k - p) == 0)
    # W_lb <= Schur complement of W_KK <= W_ub, so the smallest nonzero
    # eigenvalue lies between min P_C / W_ub and min P_C / W_lb
    P_d = critical_gjms(basis).to_diag_vector(basis)
    lam = min(P_d[~kernel_mask(basis)])
    assert lam / weight.max_eigenvalue_bound <= d["min_nonzero_abs_eigenvalue"]
    assert d["min_nonzero_abs_eigenvalue"] <= lam / weight.min_eigenvalue_bound
    elapsed = time.monotonic() - t0
    announce(5, f"perturbed chain gates at n=2, N=6 (D={basis.total_dim}) in {elapsed:.2f}s")


def test_criterion_6_total_q_vanishing(basis12):
    """Ten randomized perturbations, degree <= 3, |Upsilon| <= 0.05: |total Q| <= 1e-8."""
    rng = random.Random(20260810)
    worst = 0.0
    for trial in range(10):
        terms = []
        for _ in range(4):
            d = rng.randint(1, 3)
            p = rng.randint(0, d)
            q = d - p
            i = rng.randint(0, dim_hpq(1, p, q) - 1)
            terms.append((p, q, i, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        pert = bounded_perturbation(basis12, terms, 0.05, seed=trial)
        value, passed = total_q(qhat(pert))
        worst = max(worst, abs(value))
        assert passed and abs(value) <= 1e-8
    announce(6, f"total Q vanishes for 10 random perturbations (worst |value| {worst:.2e})")


def test_criterion_7_zero_q_round_trip(basis12):
    """Solvability, the zero-Q solve, and the exact pluriharmonic rejection."""
    P = critical_gjms(basis12)

    worst_obstruction = worst_drift = worst_final = 0.0
    rng = random.Random(77)
    for trial in range(3):
        terms = [(1, 1, 0, QI(1))] if trial == 0 else [
            (rng.randint(0, 2) + 1, rng.randint(0, 1) + 1, 0,
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for _ in range(2)
        ]
        pert = bounded_perturbation(basis12, terms, 0.05, seed=trial)
        qd = qhat(pert)
        check = solvability_check(qd)
        assert check.solvable and check.obstruction_norm_interior <= 1e-8
        worst_obstruction = max(worst_obstruction, check.obstruction_norm_interior)
        rep = solve_zero_q(qd)
        drift = (pert.upsilon + rep.upsilon_sol).apply_diagonal(P).norm()
        assert drift <= 1e-7
        assert rep.final_q_norm <= 1e-6
        worst_drift = max(worst_drift, drift)
        worst_final = max(worst_final, rep.final_q_norm)

    # pluriharmonic datum: rejected with obstruction exactly ||Q||
    Q = SpectralFunction.from_terms(basis12, [(1, 0, 0, QI(1)), (0, 1, 0, QI(1))])
    qdat = QData(Q, ContactPerturbation(basis12, SpectralFunction.zero(basis12)), True, 12, 0.0)
    rep = solvability_check(qdat)
    assert not rep.solvable
    assert rep.obstruction_norm2_exact == str(Q.norm2().re)
    with pytest.raises(ObstructionError):
        solve_zero_q(qdat)
    announce(7, f"zero-Q round trip (obstruction <= {worst_obstruction:.1e}, "
                f"P-drift <= {worst_drift:.1e}, final Q <= {worst_final:.1e}); "
                "pluriharmonic datum rejected with exact norm")


def test_criterion_8_determinism_and_manifest(tmp_path):
    """Exact-mode reruns are byte identical; manifest verification passes."""
    def emit(name):
        out = str(tmp_path / name)
        argv = ["spectrum", "--n", "1", "--degree", "6", "--mode", "exact",
                "--seed", "11", "--out", out]
        assert cli_main(argv) == EXIT_OK
        return out

    out1, out2 = emit("r1"), emit("r2")
    payloads = [f for f in os.listdir(out1) if f != "manifest.json"]
    assert payloads
    for fname in payloads:
        assert filecmp.cmp(os.path.join(out1, fname), os.path.join(out2, fname),
                           shallow=False), fname
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["emitted"] == m2["emitted"]
    assert cli_main(["spectrum", "--out", out1, "--verify"]) == EXIT_OK
    announce(8, "byte-identical exact reruns; manifest --verify passes")
