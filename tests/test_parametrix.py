import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crsphere.defaults import BASIS_CAP
from crsphere.galerkin import (
    GalerkinContext,
    InnerProductWeight,
    RealFrame,
    norm2_upper,
    norm2_upper_abs,
    shift_matrix,
    taylor_exp_matrix,
)
from crsphere.harmonics import dim_hpq
from crsphere.parametrix import (
    _g_column_norm,
    _r0_norms,
    _TimesHat,
    apply_partial_inverse,
    build_chain_diagonal,
    build_chain_matrix,
    cluster_eigenvalues,
    kernel_mask,
    min_nonzero_abs_eigenvalue,
    nonzero_eigenvalues,
    pseudo_inverse_diag,
    smoothing_residual,
    spectrum_diagonal,
    spectrum_matrix,
    spectrum_pencil,
)
from crsphere.qcurvature import ContactPerturbation, qhat, solve_zero_q, total_q
from crsphere.scalars import QI
from crsphere.spectral import SpectralFunction, Truncation, critical_gjms, l_mu
from chain_members import member, rows
from csr_inputs import csr, csr_zeros
import dense_chain
from dense_chain import _Commutator, build_chain_matrix_dense

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
        R0 = member(chain, "R0")
        for (p, q), v in R0.table.items():
            assert v == (1 if (p, q) == (0, 0) else 0)

    def test_g0_applies_n_minus_n_first(self):
        chain = build_chain_diagonal(Truncation(1, 6))
        G0 = member(chain, "G0")
        P = member(chain, "P")
        for (p, q), v in G0.table.items():
            if p * q == 0:
                assert v == 0
            else:
                assert v == Fraction(1) / P.table[(p, q)]

    def test_g0_is_p_plus_exactly(self):
        # G_0 = N_n ... N_{-n}, the partial inverses of commuting diagonals,
        # is the partial inverse of P table for table; and P < 2^53 on the
        # largest basis under BASIS_CAP for n <= 8, so both round to 1/P
        for n in (1, 2, 3):
            for N in range(13):
                chain = build_chain_diagonal(Truncation(n, N))
                assert member(chain, "G0").table == member(chain, "P").partial_inverse().table
        for n in range(1, 9):
            N = 0
            while sum(dim_hpq(n, p, d - p) for d in range(N + 2)
                      for p in range(d + 1)) <= BASIS_CAP:
                N += 1
            assert max(critical_gjms(Truncation(n, N)).table.values()) < 2**53, (n, N)

    def test_order_tags(self):
        chain = build_chain_diagonal(Truncation(2, 4))
        assert member(chain, "G0").order_tag == -6
        assert member(chain, "P").order_tag == 6
        assert member(chain, "Pi0").order_tag == 0
        assert member(chain, "R0").order_tag == -1

    def test_smoothing_residual_report(self):
        chain = build_chain_diagonal(Truncation(1, 8))
        rep = smoothing_residual(chain)
        assert rep["R_inf_rank"] == 0
        assert rep["Pi_minus_PiInf_rank"] == 0
        assert rep["R0_rank"] == 1


class TestPartialInverse:
    def test_examples(self):
        tr = Truncation(1, 6)
        N1 = l_mu(tr, 1).partial_inverse()
        for d in range(7):
            assert N1.value(d, 0) == 0
        P = critical_gjms(tr)
        assert P.partial_inverse().value(1, 1) == Fraction(1, 16)
        again = P.partial_inverse().partial_inverse()
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
            np.array([1.0, 1.0 + 1e-10, 2.0]), np.array([1, 2, 3])
        )
        assert [(c.value, c.multiplicity) for c in clusters] == [(1.0, 3), (2.0, 3)]


class TestMatrixChain:
    def test_zero_perturbation_reduces_to_diagonal(self, basis8):
        D = basis8.total_dim
        W = InnerProductWeight(csr_zeros((D, D)), taylor_depth=0, multiplier_bound=0.0)
        chain = build_chain_matrix(basis8, W)
        d = chain.diagnostics.entries
        for key in ["PG_plus_Pi_minus_I", "GP_plus_Pi_minus_I", "PGInf_plus_PiInf_minus_I",
                    "R_inf", "PiInf_sq_minus_PiInf", "Pi_minus_PiInf", "G_minus_GInf"]:
            assert d[f"{key}_full"] < 1e-11, key
        assert d["kernel_dim"] == 2 * sum(k + 1 for k in range(1, 9)) + 1
        # the diagonal chain members are reproduced entrywise
        diag = build_chain_diagonal(basis8)
        for name in ("Pi0", "R0", "A0", "PiInf"):
            ref = np.diag(member(diag, name).to_diag_vector(basis8))
            assert np.linalg.norm(member(chain, name) - ref, 2) < 1e-11, name

    def test_r0_radius_at_least_one_and_direct_inverse(self, basis8):
        # R0 = Pi0 - W^{-1} I_K W: its W-adjoint fixes the constant function,
        # so the series sum_k (-R0)^k diverges; A0 is an inverse, certified
        # by A0_residual
        weight = perturbation(basis8, 0.08).weight()
        chain = build_chain_matrix(basis8, weight)
        assert np.max(np.abs(np.linalg.eigvals(member(chain, "R0")))) >= 1 - 1e-12
        assert chain.diagnostics.entries["A0_residual"] <= 1e-12

    def test_perturbed_chain_identities(self, basis12):
        pert = perturbation(basis12, 0.08)
        weight = pert.weight()
        chain = build_chain_matrix(basis12, weight)
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
        weight = pert.weight()
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
            weight = pert.weight()
            chain = build_chain_matrix(basisN, weight)
            rep = smoothing_residual(chain)
            assert rep["R_inf_norm_full"] < 1e-12
            assert rep["Pi_minus_PiInf_norm_full"] < 1e-10


def test_chain_and_pencil_factor_nothing_by_cholesky(basis8, monkeypatch):
    # the weight's certified lower eigenvalue bound is its one positivity
    # check: the chain and the pencil spectrum run with Cholesky unavailable
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Cholesky factorization called")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    weight = perturbation(basis8, 0.08).weight()
    d = build_chain_matrix(basis8, weight).diagnostics.entries
    spec = spectrum_pencil(basis8, weight)
    assert d["kernel_dim"] == spec.kernel_dim == int(kernel_mask(basis8).sum())
    assert d["min_nonzero_abs_eigenvalue"] == pytest.approx(min_nonzero_abs_eigenvalue(spec),
                                                            rel=1e-12)


def test_projectors_vanish_outside_their_rows(basis8):
    # the chain forms its products from these rows alone
    pert = perturbation(basis8, 0.08)
    chain = build_chain_matrix(basis8, pert.weight())
    # in the real frame every one of them lives on the kernel rows K (the
    # holomorphic and antiholomorphic pairs both fill K)
    ker = kernel_mask(basis8)
    for name in ("S", "Sbar", "Pi0", "PiInf", "Pi"):
        X, rows = member(chain, name), ker
        assert np.all(X[~rows] == 0), name
        assert np.all(np.abs(X[rows]).sum(axis=1) > 0), name


# the gates the matrix chain's entries answer to: criterion 5 and the A0 certificate
CHAIN_GATES = {
    "PG_plus_Pi_minus_I_interior": 1e-8,
    "GP_plus_Pi_minus_I_interior": 1e-8,
    "PiInf_sq_minus_PiInf_interior": 1e-8,
    "A0_residual": 1e-12,
    "ran_orthogonality_defect": 1e-10,
    "ran_orthogonality_defect_PiInf": 1e-10,
    **{f"{name}_adjoint_defect": 1e-10 for name in ("P_hat", "G", "Pi", "PiInf", "GInf")},
}
ORACLE_BASES = {
    "n2_N5": lambda request: request.getfixturevalue("bases_small")[2],
    "n3_N4": lambda request: request.getfixturevalue("basis_n3_N4"),
}


def svd(X):
    return np.linalg.norm(X, 2) if X.size else 0.0


def p_hat_oracle(chain):
    """P_hat = W^{-1} P_d with W^{-1} from np.linalg.inv: the route the chain never takes."""
    return np.linalg.inv(chain.weight.matrix) * member(chain, "P_diag")


def dense_residuals(chain):
    """Every residual of the matrix chain formed densely from its members, R0 from its
    definition, with P_hat from p_hat_oracle.  Pi_oo^2 - Pi_oo and Pi - Pi_oo, which
    the chain measures to within their rounding, are formed from the rows K of the
    members in extended precision (np.longdouble): in float64 the product's own
    rounding is of the size of the residual."""
    P = p_hat_oracle(chain)
    G, Pi, GInf, PiInf, G0, A0 = (
        member(chain, name) for name in ("G", "Pi", "GInf", "PiInf", "G0", "A0"))
    ident = np.eye(P.shape[0])
    R0 = P @ G0 + member(chain, "Pi0") - ident
    ker = kernel_mask(chain.basis)
    PiInf_K = rows(chain, "PiInf", np.longdouble)
    sq, diff = np.zeros_like(P), np.zeros_like(P)
    sq[ker] = PiInf_K[:, ker] @ PiInf_K - PiInf_K
    diff[ker] = rows(chain, "Pi", np.longdouble) - PiInf_K
    return {
        "PG_plus_Pi_minus_I": P @ G + Pi - ident,
        "GP_plus_Pi_minus_I": G @ P + Pi - ident,
        "PGInf_plus_PiInf_minus_I": P @ GInf + PiInf - ident,
        "R_inf": GInf @ P + PiInf - ident,
        "PiInf_sq_minus_PiInf": sq,
        "Pi_minus_PiInf": diff,
        "G_minus_GInf": G - GInf,
        "PiG": Pi @ G,
        "PPi": P @ Pi,
        "R0": R0,
        "A0": (ident + R0) @ A0 - ident,
    }


def test_chain_norms_bound_svd_values(basis8):
    check_dense_oracle(basis8)


@pytest.mark.parametrize("which", sorted(ORACLE_BASES))
def test_chain_norms_bound_svd_values_at_n2_n3(request, which):
    check_dense_oracle(ORACLE_BASES[which](request))


def check_dense_oracle(basis):
    """The dense oracle of the factored chain.

    Every reported residual and relative defect that is not structural is
    at least the SVD value of the same matrix, rebuilt from the chain
    members with P_hat = W^{-1} P_d and W^{-1} from np.linalg.inv (R0 from
    its definition P_hat G0 + Pi0 - I, not from the stored factor product);
    inverse_defect_bound is at least the error of the stored columns K of
    W^{-1}; every structural entry (zero for the exact P_hat) is 0.0, and
    the dense member("P_hat") has those defects at the rounding level of
    its solve; every gated entry is at most its gate.  An error in the
    algebra the factored bounds assume fails here.
    """
    weight = perturbation(basis, 0.08).weight()
    chain = build_chain_matrix(basis, weight)
    assert_close(member(chain, "R0"), check_chain_bounds(chain)["R0"])
    d, routes = chain.diagnostics.entries, chain.diagnostics.routes
    for key, gate in CHAIN_GATES.items():
        assert d[key] <= gate, (key, d[key], gate)
    # every residual entry names its route, and the structural ones are exactly zero
    residual_keys = {k for k in d if k.endswith(("_full", "_interior", "_adjoint_defect"))
                     or k.startswith("ran_orthogonality") or k == "A0_residual"}
    assert set(routes) == residual_keys
    assert set(routes.values()) == {"factored", "dense", "structural"}
    structural = {k for k, route in routes.items() if route == "structural"}
    assert structural == {"PPi_full", "PPi_interior", "P_hat_adjoint_defect",
                          "ran_orthogonality_defect", "ran_orthogonality_defect_PiInf"}
    assert all(d[k] == 0.0 for k in structural)
    # the dense member: the structural identities up to the rounding of its solve
    W = weight.matrix
    P, Pi, PiInf = member(chain, "P_hat"), member(chain, "Pi"), member(chain, "PiInf")
    assert_close(P, p_hat_oracle(chain))
    assert np.all(P[:, kernel_mask(basis)] == 0)
    tiny = 1e-13
    assert svd(P - weight.solve(P.T @ W)) <= tiny * svd(P)
    for X in (Pi, PiInf):
        assert svd(X.T @ W @ P) <= tiny * svd(X) * svd(W) * svd(P)
    assert svd(P @ Pi) <= tiny * svd(P) * svd(Pi)


def check_chain_bounds(chain):
    """Every entry that is not structural is at least the SVD value it bounds;
    returns the residuals formed densely (dense_residuals) but A0."""
    d, routes = chain.diagnostics.entries, chain.diagnostics.routes
    basis, weight = chain.basis, chain.weight
    W = weight.matrix
    interior = np.array([p + q <= basis.N - 4 for p, q, _, _ in basis.index_blocks()])
    dense = dense_residuals(chain)

    def at_least(name, value, reference):
        assert value >= reference * (1 - 1e-12), (name, value, reference)

    at_least("A0_residual", d["A0_residual"], svd(dense.pop("A0")))
    for name, X in dense.items():
        for part, Y in (("full", X), ("interior", X[np.ix_(interior, interior)])):
            if routes[f"{name}_{part}"] != "structural":
                at_least(f"{name}_{part}", d[f"{name}_{part}"], svd(Y))
    for name in ("G", "Pi", "PiInf", "GInf"):
        X = member(chain, name)
        at_least(name, d[f"{name}_adjoint_defect"],
                 svd(X - weight.solve(X.conj().T @ W)) / svd(X))
    ker = kernel_mask(basis)
    V_K = chain.members["V_K"]
    at_least("inverse_defect", d["inverse_defect_bound"], svd(np.linalg.inv(W)[:, ker] - V_K))
    return dense


@pytest.mark.parametrize("which", ["n1_N8", "n2_N5"])
def test_factor_norms_against_the_dense_products(request, which):
    # the chain's norms of R_0 = U Vf (also on the interior rows and columns)
    # from Grams of order |K|, the bound ||Pi_K:|| + ||V_:K|| ||Z_2|| on U Z
    # (A_0 = I - U Z) and the lower norm of G, against the SVD of the
    # matrices formed densely: each Gram bound is at least its value and
    # within 10% of it after the squarings, also with Vf and Z scaled by 10
    # (where ||U|| alone is below them), and the largest column the chain
    # forms is a column of G, within 0.1% of its largest one
    basis = (request.getfixturevalue("basis8") if which == "n1_N8"
             else request.getfixturevalue("bases_small")[2])
    chain = build_chain_matrix(basis, perturbation(basis, 0.08).weight())
    m = chain.members
    ker = kernel_mask(basis)
    interior = np.array([p + q <= basis.N - 4 for p, q, _, _ in basis.index_blocks()])
    U = np.concatenate([np.eye(basis.total_dim)[:, ker], -m["V_K"]], axis=1)
    inner = np.ix_(interior, interior)
    k = len(m["Pi"])
    for c in (1.0, 10.0):
        W_K = c * m["W_K"]
        G, G_int = W_K @ W_K.T, W_K[:, interior] @ W_K[:, interior].T
        n_uvf, n_uvf_int = _r0_norms(m["V_K"], m["Pi0"], G, G_int,
                                     np.linalg.norm(W_K) ** 2 * (1 + 1e-12), ker, interior)
        Vf = np.concatenate([m["Pi0"] @ W_K, W_K])
        Z = c * np.concatenate([m["Pi"], rows(chain, "Z2")])
        assert svd(U @ Vf) <= n_uvf <= 1.1 * svd(U @ Vf)
        assert svd((U @ Vf)[inner]) <= n_uvf_int <= 1.1 * svd((U @ Vf)[inner])
        assert svd(U @ Z) <= norm2_upper(Z[:k]) + norm2_upper(m["V_K"]) * norm2_upper(Z[k:])
    G = member(chain, "G")
    column = _g_column_norm(chain.weight.apply, m["Pi"], m["P_plus"], ker, m["P_diag"])[0]
    assert 0.999 * np.linalg.norm(G, axis=0).max() <= column <= svd(G) * (1 + 1e-12)


def kernel_columns_moved(monkeypatch, move):
    """Let the chain's V_:K be move(V_:K), its defect bound n_f charged the dense
    ||W (move(V) - V)||, so that n_f still bounds ||W V - E_K||."""
    from crsphere import parametrix

    hatted = parametrix.hatted_gjms

    def moved(basis, weight, W_cK):
        V_K, n_f, n_e = hatted(basis, weight, W_cK)
        V = move(V_K)
        return V, n_f + svd(weight.matrix @ (V - V_K)) * (1 + 1e-6), n_e

    monkeypatch.setattr(parametrix, "hatted_gjms", moved)


def test_bounds_hold_with_inexact_kernel_columns(basis8, monkeypatch):
    # V_:K off by a relative 1e-9: the defect bound n_f >= ||W V_:K - E_K||
    # carries the error into inverse_defect_bound and through it into the
    # bounds that read V_:K (R0, A0_residual); every bound still holds
    weight = perturbation(basis8, 0.08).weight()
    kernel_columns_moved(monkeypatch, lambda V: V * (1 + 1e-9))
    chain = build_chain_matrix(basis8, weight)
    monkeypatch.undo()
    assert chain.diagnostics.entries["inverse_defect_bound"] > 1e-9
    check_chain_bounds(chain)


def test_bounds_hold_with_kernel_columns_off_their_span(basis8, monkeypatch):
    # V_:K plus 1e-9 of its rows shifted by one: the defect F = W V_:K - E_K
    # now reaches the rows C, where G_0 A_0 - P^+ B = G0_d F Z_2 makes
    # G_oo - G of that size; the bound charges it through ||F||
    weight = perturbation(basis8, 0.08).weight()
    kernel_columns_moved(monkeypatch, lambda V: V + 1e-9 * np.roll(V, 1, axis=0))
    chain = build_chain_matrix(basis8, weight)
    monkeypatch.undo()
    check_chain_bounds(chain)
    assert chain.diagnostics.entries["G_minus_GInf_full"] > 1e-11


def test_kernel_columns_charge_the_taylor_mismatch(basis8):
    # V_:K = T_K(-M) E_K stands in for W^{-1} E_K; W T_K(-M) - I = m(M) is
    # 6e-3 at sup 1.7 (n=1 N=8, a = 3.4), where refinement steps run:
    # inverse_defect_bound bounds the error of the stored columns against
    # the dense inverse (at sup 0.08, where none runs, check_dense_oracle
    # holds it to that), and the refined columns are far closer than the
    # mismatch
    weight = perturbation(basis8, 1.7).weight()
    chain = build_chain_matrix(basis8, weight)
    ker = kernel_mask(basis8)
    W = weight.matrix
    err = svd(np.linalg.inv(W)[:, ker] - chain.members["V_K"])
    d = chain.diagnostics.entries
    assert err <= d["inverse_defect_bound"]
    M = weight.multiplier.toarray()
    mismatch = svd(taylor_exp_matrix(csr(M), 12) @ taylor_exp_matrix(csr(-M), 12)
                   - np.eye(len(M)))
    assert mismatch > 1e-3 and d["inverse_defect_bound"] < 1e-2 * mismatch


@pytest.mark.parametrize("which", ["n1_N8", "n2_N5"])
def test_products_with_p_hat_are_bounded_without_it(request, which):
    # ||X P_hat|| from ||X P_d|| and ||X||, with ||[P_d, W]|| bounded by
    # e^a ||[P_d, M]||, against the dense product: for the rows K of
    # I, X P_d = 0, and the commutator carries the whole product; the dense
    # route, with ||X C|| from the formed commutator, bounds it too
    basis = (request.getfixturevalue("basis8") if which == "n1_N8"
             else request.getfixturevalue("bases_small")[2])
    weight = perturbation(basis, 0.08).weight()
    P_d = critical_gjms(basis).to_diag_vector(basis)
    P_hat = np.linalg.inv(weight.matrix) * P_d
    times_hat = _TimesHat(weight, P_d)
    W = weight.matrix
    assert svd(P_d[:, None] * W - W * P_d) <= times_hat.n_comm
    dense_hat = dense_chain._TimesHat(weight, P_d)
    rng = np.random.default_rng(3)
    D = basis.total_dim
    rows_K = np.eye(D)[kernel_mask(basis)]
    for X in (rows_K, rng.standard_normal((7, D)), weight.matrix / np.maximum(P_d, 1)[:, None]):
        x_c = _Commutator.ROUND * norm2_upper_abs((X, dense_hat.comm))
        assert times_hat(norm2_upper(X * P_d), norm2_upper(X)) >= svd(X @ P_hat)
        assert dense_hat(norm2_upper(X * P_d), norm2_upper(X), x_c) >= svd(X @ P_hat)
    assert norm2_upper(rows_K * P_d) == 0 and svd(rows_K @ P_hat) > 1e-3


def test_chain_traces_two_dense_arrays_less_than_the_inverse_route(bases_small):
    # n=2 N=5, D = 378, the weight already built: the chain that inverted W
    # and stored P_hat = W^{-1} P_d traced a peak of 8.28 D^2 doubles, its
    # kept members included, and the chain without them 5.34 D^2; with each
    # |K| factor stored once, the LU first and no Schur complement it traced
    # 4.22 D^2, and with no pass over the rows of its members 3.55 D^2;
    # with three |K| x D arrays it traced 2.04 D^2, held here to that plus
    # 5%, which also holds the multiplier's block rows and the chunks their
    # products gather (2.11 D^2 with them)
    basis = bases_small[2]
    weight = perturbation(basis, 0.08).weight()
    tracemalloc.start()
    try:
        build_chain_matrix(basis, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D = basis.total_dim
    assert peak <= 8 * 2.14 * D * D, peak / (8 * D * D)


def test_chain_allocates_no_dense_array(basis12):
    # the weight and the chain at n=1 N=12 (D = 819), traced statement by
    # statement in the floating layer: no statement holds D*D*8 bytes (5.4
    # MB) beyond what it started with, where the chain that formed W took
    # that much in each product with it; the largest measured is half of
    # it, an array of order 2|K| (|K|/D = 0.22; at n=1 N=8, |K|/D = 0.31,
    # so arrays of order 2|K| come within 2% of D*D there).  The inner
    # loops of the sparse products are not traced (their arrays are
    # vectors), so their allocations count in the statement that calls them
    D = basis12.total_dim
    pert = perturbation(basis12, 0.08)
    rises, last = [], []

    def line(frame, event, arg):
        current, peak = tracemalloc.get_traced_memory()
        if last:
            rises.append(peak - last[0])
        tracemalloc.reset_peak()
        last[:] = [current]
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_name in ("__matmul__", "_matvec", "abs_matvec"):
            return None
        return line if code.co_filename.endswith(("galerkin.py", "parametrix.py")) else None

    tracemalloc.start()
    sys.settrace(call)
    try:
        chain = build_chain_matrix(basis12, pert.weight())
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    assert chain.weight._matrix is None
    assert 0 < max(rises) < 8 * D * D


def test_chain_working_set_is_four_kernel_arrays(basis12):
    # n=1 N=12 (D = 819, |K| = 181), the weight built first: the chain's
    # traced peak stays within four |K| x D arrays plus 2 MB.  The pass holds
    # W_:K, V_:K and two powers of M on them; after it the chain keeps W_K:,
    # V_:K and Pi_K:, and every other member of |K| rows as a coefficient of
    # order |K| on [W_K:; Pi_K:], formed a block of columns at a time; the
    # chain that stored Vf, Z_2, r and the rows of Pi_oo traced 9.1 arrays
    weight = perturbation(basis12, 0.08).weight()
    k, D = int(kernel_mask(basis12).sum()), basis12.total_dim
    tracemalloc.start()
    try:
        build_chain_matrix(basis12, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * k * D + 2**21, peak / (8 * k * D)


@pytest.mark.parametrize("which", ["n1_N8", *sorted(ORACLE_BASES)])
def test_matrix_free_chain_matches_the_dense_oracle(request, which):
    # the chain without W against the chain that formed it (tests/dense_chain.py),
    # on one weight, at n=1 N=8, n=2 N=5 and n=3 N=4 (|K| = 89, 111 and 139 of
    # D = 285, 378 and 450): the same kernel columns and projector rows, and the rows of
    # Vf, Z_2 and Pi_oo the chain keeps as coefficients on [W_K:; Pi_K:], and
    # its G and G_oo, up to rounding; the same exact entries and eigenvalue
    basis = (request.getfixturevalue("basis8") if which == "n1_N8"
             else ORACLE_BASES[which](request))
    weight = perturbation(basis, 0.08).weight()
    chain = build_chain_matrix(basis, weight)
    dense = build_chain_matrix_dense(basis, weight)
    for name in ("V_K", "Pi"):
        assert_close(chain.members[name], dense.members[name])
    for name in ("Vf", "PiInf", "Z2"):
        assert_close(rows(chain, name), rows(dense, name))
    for name in ("G", "GInf", "A0"):
        assert_close(member(chain, name), member(dense, name))
    d, ref = chain.diagnostics.entries, dense.diagnostics.entries
    for key in ("kernel_dim", "min_nonzero_abs_eigenvalue_group_size", "A0_method"):
        assert d[key] == ref[key]
    assert abs(d["min_nonzero_abs_eigenvalue"] - ref["min_nonzero_abs_eigenvalue"]) <= 1e-12 * 16
    assert set(d) == set(ref) and chain.diagnostics.routes == dense.diagnostics.routes


def test_pi_rows_on_the_diagonal_of_w_kk_fail_the_derived_pg_bound(basis8, monkeypatch):
    # Pi_K: solved on diag(W_KK) alone leaves the defect r = W_K: - W_KK Pi_K:
    # of the size of W_KK's off-diagonal part; the derived P_hat G + Pi - I
    # bound carries it over its gate, and still bounds the dense residual
    weight = perturbation(basis8, 0.08).weight()
    ker = kernel_mask(basis8)
    W = weight.matrix
    rows = W[ker] / np.diag(W)[ker][:, None]
    monkeypatch.setattr(weight, "projector_rows", lambda mask, *W_M: rows)
    chain = build_chain_matrix(basis8, weight)
    d = chain.diagnostics.entries
    assert d["PG_plus_Pi_minus_I_interior"] > 1e-8
    dense = dense_residuals(chain)["PG_plus_Pi_minus_I"]
    assert d["PG_plus_Pi_minus_I_full"] >= svd(dense)
    assert svd(dense) > 1e-8


def spectral_oracle(P_d, weight):
    """Pi, G and the nonzero eigenvalue range from the generalized eigensolver."""
    spec = spectrum_matrix(P_d, weight)
    V, lam = spec.eigenvectors, spec.eigenvalues
    ker = np.abs(lam) <= spec.kernel_tol
    inv_lam = np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, lam))
    VW = V.conj().T @ weight.matrix  # V is W-orthonormal
    G = (V * inv_lam[None, :]) @ VW
    Pi = V[:, ker] @ VW[ker, :]
    lam_min = min_nonzero_abs_eigenvalue(spec)
    return spec, Pi, G, lam_min, float(np.max(np.abs(lam))) / lam_min


def assert_close(got, ref, rel=1e-12):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref)), (got, ref)


def assert_enclosed(entries, ref, width=1e-10):
    """The chain's smallest nonzero eigenvalue: the Ritz value within 1e-12 of the
    dense eigensolve's ref, and a certified enclosure of relative width at
    most width that contains ref."""
    lo, hi = entries["min_nonzero_abs_eigenvalue_enclosure"]
    assert lo <= ref <= hi, (lo, ref, hi)
    assert hi - lo <= width * ref, (lo, hi)
    assert abs(entries["min_nonzero_abs_eigenvalue"] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("scale,seed", [(0.05, 0), (0.1, 1)])
def test_closed_forms_match_spectral_oracle(basis8, scale, seed):
    pert = perturbation(basis8, scale, degree=2)
    weight = pert.weight()
    P_d = critical_gjms(basis8).to_diag_vector(basis8)
    spec, Pi_ref, G_ref, lam_min_ref, cond_ref = spectral_oracle(P_d, weight)
    chain = build_chain_matrix(basis8, weight)
    assert chain.diagnostics.entries["kernel_dim"] == spec.kernel_dim
    assert_close(member(chain, "Pi"), Pi_ref)
    assert_close(member(chain, "G"), G_ref)
    lam = nonzero_eigenvalues(P_d, weight, kernel_mask(basis8))
    assert_enclosed(chain.diagnostics.entries, lam[0])
    assert_close(lam[0], lam_min_ref)
    assert_close(lam[-1] / lam[0], cond_ref)
    # G applied to a vector is the formed G times it
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(basis8.total_dim) + 1j * rng.standard_normal(basis8.total_dim)
    assert_close(apply_partial_inverse(P_d, weight, kernel_mask(basis8), x), G_ref @ x)
    rep = solve_zero_q(qhat(pert))
    assert cond_ref <= rep.condition_bound


ENCLOSURE_BASES = {
    "n1_N8": lambda request: request.getfixturevalue("basis8"),
    "n1_N12": lambda request: request.getfixturevalue("basis12"),
    "n2_N5": lambda request: request.getfixturevalue("bases_small")[2],
    "n2_N6": lambda request: request.getfixturevalue("basis_n2_N8").restrict(6),
    "n3_N4": lambda request: request.getfixturevalue("basis_n3_N4"),
}


@pytest.mark.parametrize("which", sorted(ENCLOSURE_BASES))
def test_low_eigenvalue_enclosure_contains_the_dense_value(request, which):
    # the block iteration's certified enclosure against the dense
    # eigensolve of the Schur complement: it contains the value and is at
    # most 1e-10 wide, relative, and the group is the lowest block of P
    basis = ENCLOSURE_BASES[which](request)
    weight = perturbation(basis, 0.08).weight()
    d = build_chain_matrix(basis, weight).diagnostics.entries
    ker = kernel_mask(basis)
    P_d = critical_gjms(basis).to_diag_vector(basis)
    assert_enclosed(d, nonzero_eigenvalues(P_d, weight, ker)[0])
    assert d["min_nonzero_abs_eigenvalue_group_size"] == np.sum(P_d == P_d[~ker].min())


@pytest.mark.parametrize("scale,sup", [(1 + 1e-8, 0.08), (2.0, 0.08), (1 - 1e-8, 1.0)])
def test_low_eigenvalue_enclosure_charges_the_defect_of_the_kernel_rows(basis8, monkeypatch,
                                                                        scale, sup):
    # the iteration applies the Schur complement through the rows K of Pi;
    # rows off by a relative 1e-8 move the Ritz value by more than its
    # rounding (at sup 1.0 below the eigenvalue, where a bracket whose Ritz
    # side were 1 / theta_1 would miss it), and rows twice their size leave
    # a Ritz value far from every eigenvalue of the pencil.  The enclosure
    # charges ||r_KC P_C^{-1/2}|| (r the defect of the rows) and so widens
    # to a bracket inside Ostrowski's [p_1 / W_ub, p_1 / lambda_lb] and far
    # wider than the rounding: either way it contains the eigenvalue of the
    # exact pencil
    weight = perturbation(basis8, sup).weight()
    ker = kernel_mask(basis8)
    P_d = critical_gjms(basis8).to_diag_vector(basis8)
    ref = nonzero_eigenvalues(P_d, weight, ker)[0]
    rows = weight.projector_rows(ker) * scale
    monkeypatch.setattr(weight, "projector_rows", lambda mask, *W_M: rows)
    d = build_chain_matrix(basis8, weight).diagnostics.entries
    lo, hi = d["min_nonzero_abs_eigenvalue_enclosure"]
    assert lo <= ref <= hi, (lo, ref, hi)
    p_1 = P_d[~ker].min()
    if scale == 2.0:
        assert p_1 / weight.max_eigenvalue_bound * (1 - 1e-14) <= lo
        assert hi <= p_1 / weight.min_eigenvalue_bound * (1 + 1e-14)
        assert hi - lo > 0.1 * ref
        return
    assert abs(d["min_nonzero_abs_eigenvalue"] - ref) > 1e-12 * ref
    assert hi - ref <= 1e-4 * ref
    if sup < 0.1:
        assert hi - lo <= 1e-6 * ref


@pytest.mark.parametrize("scale,group", [(0.3, 8), (1.7, 0)])
def test_low_eigenvalue_enclosure_at_a_large_perturbation(bases_small, scale, group):
    # n=2 N=5: at sup 0.3 (W_ub / lambda_lb = 11) the Ostrowski brackets of
    # the whole P_C overlap, yet the Ritz values isolate the lowest block of
    # P; at sup 1.7 (35000) nothing isolates it, and the enclosure is
    # [p_1 / W_ub, 1 / (theta_1 - rho)], the Ritz side still tight.  Either
    # way the block stays 2 g + 8 wide, and the chain's traced peak stays
    # within 2.29 D^2: 2.18 D^2 measured at sup 1.7, where the refinement
    # steps' passes gather their chunks on top of the pass's arrays, plus 5%
    basis = bases_small[2]
    weight = perturbation(basis, scale).weight()
    weight.matrix
    tracemalloc.start()
    try:
        d = build_chain_matrix(basis, weight).diagnostics.entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D = basis.total_dim
    assert peak <= 8 * 2.29 * D * D, peak / (8 * D * D)
    ker = kernel_mask(basis)
    P_d = critical_gjms(basis).to_diag_vector(basis)
    ref = nonzero_eigenvalues(P_d, weight, ker)[0]
    assert d["min_nonzero_abs_eigenvalue_group_size"] == group
    if group:
        assert_enclosed(d, ref)
        return
    lo, hi = d["min_nonzero_abs_eigenvalue_enclosure"]
    assert lo <= ref <= hi <= ref * (1 + 1e-8), (lo, ref, hi)
    assert lo == pytest.approx(P_d[~ker].min() / weight.max_eigenvalue_bound, rel=1e-14)
    assert abs(d["min_nonzero_abs_eigenvalue"] - ref) <= 1e-12 * ref


def test_nonzero_eigenvalues_empty_without_nonzero_spectrum(basis16):
    basis = basis16.restrict(1)  # degree <= 1: every block is pluriharmonic
    D = basis.total_dim
    weight = InnerProductWeight(csr_zeros((D, D)), taylor_depth=0, multiplier_bound=0.0)
    P_d = critical_gjms(basis).to_diag_vector(basis)
    assert nonzero_eigenvalues(P_d, weight, kernel_mask(basis)).size == 0


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       size=st.floats(0.01, 0.1))
def test_zero_q_properties_random_exponent(bases_small, n, seed, size):
    # a random real Upsilon of degree <= 3, scaled so the certified sup bound
    # is `size`: total Q vanishes, the solve round-trips, the closed-form
    # solution agrees with the generalized eigensolver and the condition
    # bound is at least its condition number
    basis = bases_small[n]
    pert = random_exponent(basis, np.random.default_rng(seed), size)
    assume(pert is not None)
    assume(check_zero_q(basis, pert))  # a pluriharmonic Upsilon gives Q_hat = 0 exactly


def test_zero_q_properties_at_n2_N6(basis_n2_N8):
    # the same properties at n=2 beyond N=5: N = 6, D = 714, one seeded draw
    basis = basis_n2_N8.restrict(6)
    assert check_zero_q(basis, random_exponent(basis, np.random.default_rng(6), 0.05))


def random_exponent(basis, rng, size):
    """A random real Upsilon of degree <= 3 with certified sup bound size, or None."""
    terms = []
    for _ in range(rng.integers(1, 5)):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(0, d + 1))
        i = int(rng.integers(0, dim_hpq(basis.n, p, d - p)))
        terms.append((p, d - p, i, complex(*rng.standard_normal(2))))
    f = SpectralFunction.from_terms(basis, terms).realized()
    if not f.sup_norm_bound() > 0:
        return None
    return ContactPerturbation(basis, f.scale(size / f.sup_norm_bound()), label="drawn")


def check_zero_q(basis, pert):
    """Total Q vanishes; unless Q_hat is exactly zero (then False), the solve
    round-trips and agrees with the dense oracle (then True)."""
    qd = qhat(pert)
    value, passed = total_q(qd)
    assert passed and abs(value) <= 1e-8
    if qd.exact:
        return False
    rep = solve_zero_q(qd)
    drift = (pert.upsilon + rep.upsilon_sol).apply_diagonal(critical_gjms(basis)).norm()
    assert drift <= 1e-7
    assert rep.final_q_norm <= 1e-6

    P_d = critical_gjms(basis).to_diag_vector(basis)
    spec, _, G_ref, _, cond_ref = spectral_oracle(P_d, pert.weight())
    assert spec.kernel_dim == rep.kernel_dim
    frame = RealFrame(basis)  # G_ref acts on frame coefficients
    ref_vec = frame.from_frame(-G_ref @ frame.to_frame(qd.vector()))
    ref = SpectralFunction.from_vector(basis, ref_vec).realized().to_vector()
    got = rep.upsilon_sol.to_vector()
    # the solver prunes coefficients below 1e-15 max(1, max|u|)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert cond_ref <= rep.condition_bound
    return True


@pytest.mark.parametrize("which", ["n1_N8", "n2_N5"])
def test_p_hat_is_the_only_dense_member(request, which):
    # P_hat is the one member member() forms by a dense solve; it is not
    # stored, and every stored member is a diagonal or a factor with at
    # most 2|K| rows or columns, which member() expands
    basis = (request.getfixturevalue("basis8") if which == "n1_N8"
             else request.getfixturevalue("bases_small")[2])
    chain = build_chain_matrix(basis, perturbation(basis, 0.08).weight())
    k = chain.diagnostics.entries["kernel_dim"]
    D = basis.total_dim
    assert 2 * k < D
    assert "P_hat" not in chain.members
    for name, X in chain.members.items():
        assert X.ndim == 1 or min(X.shape) <= 2 * k, (name, X.shape)
    for name in ("P_hat", "G0", "R0", "A0", "G", "GInf", "Pi", "PiInf", "S"):
        assert member(chain, name).shape == (D, D), name


@pytest.mark.parametrize("which", ["basis16", "bases_small", "basis_n3_N4", "basis_n2_N8"])
def test_g0_floats_are_the_chains_p_plus(request, which):
    # the matrix chain stores G_0 as P^+ = pseudo_inverse_diag(P_d): bit for
    # bit the float table of G_0 (test_g0_is_p_plus_exactly: P < 2^53)
    bases = request.getfixturevalue(which)
    for basis in bases.values() if isinstance(bases, dict) else (bases,):
        P = critical_gjms(basis)
        p = pseudo_inverse_diag(P.to_diag_vector(basis), kernel_mask(basis))
        assert np.array_equal(P.partial_inverse().to_diag_vector(basis), p)


def test_members_follow_their_definitions_with_an_inexact_a0(basis8, monkeypatch):
    # The Woodbury solve takes Z_1 = Pi_K: and solves for Z_2, which makes
    # Pi_oo = Pi up to rounding; a Z_2 off by 1e-6 makes A0 inexact and
    # Pi_oo differ from Pi.  Every expanded member must still follow its
    # definition from the other members (G_oo = (I - Pi_oo) G0 A0, not
    # (I - Pi) G0 A0), and every factored bound must still bound the
    # residual formed densely.
    from crsphere import parametrix

    z2 = parametrix._woodbury_z2
    monkeypatch.setattr(parametrix, "_woodbury_z2", lambda *args: z2(*args) * (1 + 1e-6))
    weight = perturbation(basis8, 0.08).weight()
    chain = build_chain_matrix(basis8, weight)
    d = chain.diagnostics.entries
    m = chain.members
    W = weight.matrix
    D = basis8.total_dim
    ident = np.eye(D)
    G0, A0, Pi, PiInf = (member(chain, name) for name in ("G0", "A0", "Pi", "PiInf"))
    assert d["Pi_minus_PiInf_full"] > 1e-8
    assert_close(G0, m["P_plus"][:, None] * W)
    ker = kernel_mask(basis8)
    U = np.concatenate([ident[:, ker], -m["V_K"]], axis=1)
    assert_close(member(chain, "R0"), U @ rows(chain, "Vf"))
    assert_close(A0, ident - U @ np.concatenate([m["Pi"], rows(chain, "Z2")]))
    assert_close(PiInf, member(chain, "Pi0") @ A0)
    assert_close(member(chain, "GInf"), (ident - PiInf) @ G0 @ A0)
    assert_close(member(chain, "G"), (ident - Pi) @ (m["P_plus"][:, None] * W) @ (ident - Pi))
    dense = dense_residuals(chain)
    assert d["A0_residual"] >= svd(dense.pop("A0"))
    for name, X in dense.items():
        if chain.diagnostics.routes[f"{name}_full"] == "factored":
            assert d[f"{name}_full"] >= svd(X), name


def test_chain_members_are_float64_but_the_szego_pair(basis8):
    # a stray cast to complex fails here instead of tripling the chain's cost
    chain = build_chain_matrix(basis8, perturbation(basis8, 0.08).weight())
    assert chain.weight.matrix.dtype == np.float64
    for name, X in chain.members.items():
        want = np.complex128 if name in ("S", "Sbar") else np.float64
        assert X.dtype == want, name
    S = member(chain, "S")
    assert np.array_equal(member(chain, "Sbar"), S.conj())
    assert np.array_equal(member(chain, "Pi0"), 2 * S.real)


def drawn_perturbation(basis, seed, size=0.1):
    """A seeded real Upsilon of degree <= 3 with certified sup bound `size`."""
    rng = np.random.default_rng(seed)
    terms = []
    for d, p in ((1, 0), (2, 1), (3, 2), (3, 0)):
        i = int(rng.integers(0, dim_hpq(basis.n, p, d - p)))
        terms.append((p, d - p, i, complex(*rng.standard_normal(2))))
    f = SpectralFunction.from_terms(basis, terms).realized()
    return ContactPerturbation(basis, f.scale(size / f.sup_norm_bound()), label="drawn")


def complex_chain_reference(basis, pert):
    """Pi, G, A0, PiInf, GInf, S and Pi0 in the basis e, complex128 throughout.

    The multiplier is assembled from the normalized basis elements e_k
    (no frame), and every member follows its defining formula with dense
    solves: W-orthogonal coordinate projectors W_MM^{-1} W_M:, G0 = G0_d W,
    P_hat = W^{-1} P_d, A0 = (P_hat G0 + Pi0)^{-1}.
    """
    D = basis.total_dim
    ctx = GalerkinContext(basis, mult_degree=3)
    rows, cols, vals = [], [], []
    for p, q, i, g in basis.index_blocks():
        el = basis.blocks[(p, q)][i]
        for (_, A, B), c in el.poly.terms.items():
            rows.append(g)
            cols.append(ctx.idx_basis.index[(A, B)])
            vals.append(complex(c) / math.sqrt(float(el.norm2)))
    Bc = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(D, len(ctx.idx_basis)))
    poly = pert.upsilon.to_poly_float().scale(float(basis.n + 1))
    K, S = (scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
            for X in (ctx.K, shift_matrix(poly, ctx.idx_basis, ctx.idx_big)))
    M = (Bc.conj() @ K @ S @ Bc.T).toarray()
    W = taylor_exp_matrix(csr(M), pert.K)
    W = 0.5 * (W + W.conj().T)

    def proj(mask):
        X = np.zeros((D, D), dtype=complex)
        X[mask] = np.linalg.solve(W[np.ix_(mask, mask)], W[mask])
        return X

    blocks = list(basis.index_blocks())
    holo = np.array([q == 0 for p, q, _, _ in blocks])
    anti = np.array([p == 0 for p, q, _, _ in blocks])
    ker = kernel_mask(basis)
    P_d = critical_gjms(basis).to_diag_vector(basis)
    G0_d = critical_gjms(basis).partial_inverse().to_diag_vector(basis)
    ident = np.eye(D)
    S = proj(holo)
    Pi0 = S + proj(anti)
    A0 = np.linalg.inv(np.linalg.solve(W, np.diag(P_d)) @ (G0_d[:, None] * W) + Pi0)
    PiInf = Pi0 @ A0
    Pi = proj(ker)
    P_plus = np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, P_d))
    return {
        "Pi": Pi, "G": (ident - Pi) @ (P_plus[:, None] * W) @ (ident - Pi),
        "A0": A0, "PiInf": PiInf, "GInf": (ident - PiInf) @ (G0_d[:, None] * W) @ A0,
        "S": S, "Pi0": Pi0,
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_frame_chain_matches_complex_reference(basis8, seed):
    # the real-frame members, mapped back with U, against the complex chain
    pert = drawn_perturbation(basis8, seed)
    chain = build_chain_matrix(basis8, pert.weight())
    U = RealFrame(basis8).unitary().toarray()
    for name, ref in complex_chain_reference(basis8, pert).items():
        got = U @ member(chain, name) @ U.conj().T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("seed", [0, 2])
def test_chain_routes_match_the_direct_solves(basis8, seed):
    # the chain's solve for the columns K of W^{-1}, its Woodbury A0 and its
    # one solve with W_KK against direct solves: P_hat = W^{-1} P_d, A0 = (I + R0)^{-1},
    # Pi_K: = W_KK^{-1} W_K:, G by two block solves, the Schur spectrum
    pert = drawn_perturbation(basis8, seed)
    weight = pert.weight()
    chain = build_chain_matrix(basis8, weight)
    W = weight.matrix
    D = basis8.total_dim
    ker = kernel_mask(basis8)
    C = ~ker
    P_d = member(chain, "P_diag")
    assert chain.diagnostics.entries["A0_method"] == "woodbury"
    assert_close(member(chain, "A0"), np.linalg.inv(np.eye(D) + member(chain, "R0")))
    assert_close(member(chain, "P_hat"), np.linalg.inv(W) * P_d)
    assert np.all(member(chain, "P_hat")[:, ker] == 0)

    def kernel_solve(B):
        return np.linalg.solve(W[np.ix_(ker, ker)], B)

    Pi = np.zeros((D, D))
    Pi[ker] = kernel_solve(W[ker])
    assert_close(member(chain, "Pi"), Pi)
    G = W - W[:, ker] @ kernel_solve(W[ker])
    G *= np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, P_d))[:, None]
    G[ker] -= kernel_solve(W[ker] @ G)
    assert_close(member(chain, "G"), G)
    S = W[np.ix_(C, C)] - W[np.ix_(C, ker)] @ kernel_solve(W[np.ix_(ker, C)])
    r = 1 / np.sqrt(P_d[C])
    lam = 1 / np.linalg.eigvalsh(r[:, None] * S * r[None, :])[::-1]
    assert_close(nonzero_eigenvalues(P_d, weight, ker), lam)
    assert_enclosed(chain.diagnostics.entries, nonzero_eigenvalues(P_d, weight, ker)[0])
