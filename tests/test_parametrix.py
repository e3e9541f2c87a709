from fractions import Fraction

import numpy as np
import pytest

from crsphere.galerkin import GalerkinContext, InnerProductWeight
from crsphere.parametrix import (
    build_chain_diagonal,
    build_chain_matrix,
    cluster_eigenvalues,
    hatted_gjms,
    min_nonzero_abs_eigenvalue,
    partial_inverse,
    smoothing_residual,
    spectrum_diagonal,
    spectrum_matrix,
    _estimate_spectral_radius,
)
from crsphere.qcurvature import ContactPerturbation
from crsphere.scalars import QI
from crsphere.spectral import SpectralFunction, Truncation, critical_gjms, l_mu

EXACT_ZERO_KEYS = [
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


def perturbation(basis, scale, seed=0, degree=2):
    terms = [(1, 1, 0, QI(1))]
    if degree >= 2:
        terms.append((2, 0, 0, QI(1, 1)))
    f = SpectralFunction.from_terms(basis, terms).realized()
    sup = f.sup_norm_estimate()
    return ContactPerturbation(basis, f.scale(scale / sup), taylor_depth=12, label="test")


class TestDiagonalChain:
    @pytest.mark.parametrize("n,N", [(1, 8), (2, 6), (3, 4)])
    def test_exact_closure(self, n, N):
        chain = build_chain_diagonal(Truncation(n, N))
        d = chain.diagnostics.entries
        for key in EXACT_ZERO_KEYS:
            assert d[f"{key}_sup"] == 0, key
            assert d[f"{key}_rank"] == 0, key
        assert d["R0_rank"] == 1
        assert d["R0_idempotent"] and d["A0_method"] == "closed_form"
        assert d["Pi_self_adjoint"]

    def test_r0_eigentable(self):
        # R0 = P G0 + Pi0 - I is 1 exactly at (0,0) and 0 elsewhere: N_{-n}
        # is applied first and kills p = 0, so only the double-counted
        # constants survive in Pi0 - I
        chain = build_chain_diagonal(Truncation(1, 6))
        R0 = chain.member("R0")
        for (p, q), v in R0.table.items():
            assert v == (1 if (p, q) == (0, 0) else 0)

    def test_g0_applies_n_minus_n_first(self):
        chain = build_chain_diagonal(Truncation(1, 6))
        G0 = chain.member("G0")
        P = chain.member("P")
        for (p, q), v in G0.table.items():
            if p * q == 0:
                assert v == 0
            else:
                assert v == Fraction(1) / P.table[(p, q)]

    def test_order_tags(self):
        chain = build_chain_diagonal(Truncation(2, 4))
        assert chain.member("G0").order_tag == -6
        assert chain.member("P").order_tag == 6
        assert chain.member("Pi0").order_tag == 0
        assert chain.member("R0").order_tag == -1

    def test_smoothing_residual_report(self):
        chain = build_chain_diagonal(Truncation(1, 8))
        rep = smoothing_residual(chain)
        assert rep["R_inf_rank"] == 0
        assert rep["Pi_minus_PiInf_rank"] == 0
        assert rep["R0_rank"] == 1


class TestPartialInverse:
    def test_examples(self):
        tr = Truncation(1, 6)
        N1 = partial_inverse(l_mu(tr, 1))
        for d in range(7):
            assert N1.value(d, 0) == 0
        P = critical_gjms(tr)
        assert partial_inverse(P).value(1, 1) == Fraction(1, 16)
        again = partial_inverse(partial_inverse(P))
        for key, v in P.table.items():
            if v:
                assert again.table[key] == v


class TestDiagonalSpectrum:
    def test_multiplicity_16_is_3(self):
        sp = spectrum_diagonal(critical_gjms(Truncation(1, 8)))
        cl = [c for c in sp.multiplicity_clusters if abs(c.value - 16) < 1e-9]
        assert len(cl) == 1 and cl[0].multiplicity == 3

    def test_symmetric_blocks_merge(self):
        # lambda_P(2,1) = lambda_P(1,2) = 48 with dims 4 + 4
        sp = spectrum_diagonal(critical_gjms(Truncation(1, 8)))
        cl = [c for c in sp.multiplicity_clusters if abs(c.value - 48) < 1e-9]
        assert len(cl) == 1 and cl[0].multiplicity == 8
        assert sorted(cl[0].blocks) == [(1, 2), (2, 1)]

    def test_kernel_count_formula(self):
        for N in (6, 8, 12):
            sp = spectrum_diagonal(critical_gjms(Truncation(1, N)))
            assert sp.kernel_dim == 2 * sum(d + 1 for d in range(1, N + 1)) + 1

    def test_cluster_tolerance(self):
        clusters = cluster_eigenvalues(
            np.array([1.0, 1.0 + 1e-10, 2.0]), np.array([1, 2, 3]), rel_tol=1e-8
        )
        assert [(c.value, c.multiplicity) for c in clusters] == [(1.0, 3), (2.0, 3)]


class TestMatrixChain:
    def test_zero_perturbation_reduces_to_diagonal(self, basis8):
        W = InnerProductWeight.identity(basis8.total_dim)
        chain = build_chain_matrix(hatted_gjms(basis8, W), W)
        d = chain.diagnostics.entries
        for key in ["PG_plus_Pi_minus_I", "GP_plus_Pi_minus_I", "PGInf_plus_PiInf_minus_I",
                    "R_inf", "PiInf_sq_minus_PiInf", "Pi_minus_PiInf", "G_minus_GInf"]:
            assert d[f"{key}_full"] < 1e-11, key
        assert d["kernel_dim"] == 2 * sum(k + 1 for k in range(1, 9)) + 1
        # the diagonal chain members are reproduced entrywise
        diag = build_chain_diagonal(basis8)
        for name in ("Pi0", "R0", "A0", "PiInf"):
            ref = np.diag(diag.member(name).to_diag_vector(basis8))
            assert np.linalg.norm(chain.member(name) - ref, 2) < 1e-11, name

    def test_r0_radius_one_triggers_direct_inverse(self, basis8):
        # S Sbar keeps an eigenvalue 1 inside R0, so the Neumann guard must
        # report radius ~ 1 and fall back
        W = InnerProductWeight.identity(basis8.total_dim)
        chain = build_chain_matrix(hatted_gjms(basis8, W), W)
        d = chain.diagnostics.entries
        assert abs(d["spectral_radius_R0_estimate"] - 1.0) < 1e-6
        assert d["A0_method"] == "direct_inverse"

    def test_perturbed_chain_identities(self, basis12):
        pert = perturbation(basis12, 0.08)
        ctx = GalerkinContext(basis12, mult_degree=4)
        weight = pert.weight(ctx)
        chain = build_chain_matrix(hatted_gjms(basis12, weight), weight)
        d = chain.diagnostics.entries
        assert d["PG_plus_Pi_minus_I_interior"] <= 1e-8
        assert d["GP_plus_Pi_minus_I_interior"] <= 1e-8
        assert d["PiInf_sq_minus_PiInf_interior"] <= 1e-8
        assert d["P_hat_adjoint_defect"] <= 1e-10
        assert d["G_adjoint_defect"] <= 1e-10
        assert d["Pi_adjoint_defect"] <= 1e-10
        assert d["ran_orthogonality_defect"] <= 1e-10
        assert d["kernel_dim"] == 2 * sum(k + 1 for k in range(1, 13)) + 1
        assert abs(d["min_nonzero_abs_eigenvalue"] - 16.0) < 1.0

    def test_matrix_spectrum_real_and_stable(self, basis12):
        pert = perturbation(basis12, 0.08)
        ctx = GalerkinContext(basis12, mult_degree=4)
        weight = pert.weight(ctx)
        P_d = critical_gjms(basis12).to_diag_vector(basis12)
        spec = spectrum_matrix(P_d, weight)
        assert np.max(np.abs(np.imag(spec.eigenvalues))) <= 1e-12
        assert spec.kernel_dim == 2 * sum(k + 1 for k in range(1, 13)) + 1
        mn = min_nonzero_abs_eigenvalue(spec)
        assert mn is not None and mn > 10.0

    def test_smoothing_residual_matrix_over_truncations(self, basis16):
        # the weight cancels inside G0 P_hat, so the left-parametrix residual
        # closes at machine level at every truncation; assert it uniformly
        # rather than as a decay trend
        for N in (6, 8, 10):
            basisN = basis16.restrict(N)
            pert = perturbation(basisN, 0.05, degree=1)
            ctx = GalerkinContext(basisN, mult_degree=4)
            weight = pert.weight(ctx)
            chain = build_chain_matrix(hatted_gjms(basisN, weight), weight)
            rep = smoothing_residual(chain)
            assert rep["R_inf_norm_full"] < 1e-12
            assert rep["Pi_minus_PiInf_norm_full"] < 1e-10


def test_chain_norms_bound_svd_values(basis8):
    # every reported residual and relative defect is at least the SVD value
    # of the same matrix, rebuilt from the chain members
    pert = perturbation(basis8, 0.08)
    weight = pert.weight(GalerkinContext(basis8, mult_degree=4))
    chain = build_chain_matrix(hatted_gjms(basis8, weight), weight)
    d = chain.diagnostics.entries
    m = chain.members
    P, G, Pi, GInf, PiInf = m["P_hat"], m["G"], m["Pi"], m["GInf"], m["PiInf"]
    W = weight.matrix
    ident = np.eye(basis8.total_dim)
    interior = np.array([p + q <= basis8.N - 4 for p, q, _, _ in basis8.index_blocks()])
    residuals = {
        "PG_plus_Pi_minus_I": P @ G + Pi - ident,
        "GP_plus_Pi_minus_I": G @ P + Pi - ident,
        "PGInf_plus_PiInf_minus_I": P @ GInf + PiInf - ident,
        "R_inf": GInf @ P + PiInf - ident,
        "PiInf_sq_minus_PiInf": PiInf @ PiInf - PiInf,
        "Pi_minus_PiInf": Pi - PiInf,
        "G_minus_GInf": G - GInf,
        "PiG": Pi @ G,
        "PPi": P @ Pi,
        "R0": m["R0"],
    }

    def svd(X):
        return np.linalg.norm(X, 2) if X.size else 0.0

    def at_least(name, value, reference):
        assert value >= reference * (1 - 1e-12), (name, value, reference)

    for name, X in residuals.items():
        at_least(f"{name}_full", d[f"{name}_full"], svd(X))
        at_least(f"{name}_interior", d[f"{name}_interior"],
                 svd(X[np.ix_(interior, interior)]))
    for name in ("P_hat", "G", "Pi", "PiInf", "GInf"):
        X = m[name]
        at_least(name, d[f"{name}_adjoint_defect"],
                 svd(X - weight.weighted_adjoint(X)) / svd(X))
    scale = svd(Pi) * svd(W) * svd(P)
    at_least("ran", d["ran_orthogonality_defect"], svd(Pi.conj().T @ W @ P) / scale)
    at_least("ran_PiInf", d["ran_orthogonality_defect_PiInf"],
             svd(PiInf.conj().T @ W @ P) / scale)


def test_radius_estimator_on_known_matrix():
    R = np.diag([0.5, -0.25, 0.1]).astype(complex)
    assert abs(_estimate_spectral_radius(R) - 0.5) < 1e-6
