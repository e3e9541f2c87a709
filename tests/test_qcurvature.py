import math
import random

import numpy as np
import pytest
import scipy.linalg

from crsphere import galerkin
from crsphere.errors import ConfigError, ObstructionError
from crsphere.galerkin import RealFrame, full_context, taylor_exp_apply, taylor_exp_matrix
from crsphere.harmonics import dim_hpq
from crsphere.parametrix import interior_mask, kernel_mask, nonzero_eigenvalues
from crsphere.qcurvature import (
    ContactPerturbation,
    QData,
    qhat,
    recompute_final_q_norm,
    solvability_check,
    solve_zero_q,
    total_q,
)
from crsphere.scalars import QI
from crsphere.spectral import SpectralFunction, critical_gjms


def phi11(basis):
    return SpectralFunction.from_terms(basis, [(1, 1, 0, QI(1))]).realized()


def random_small_perturbation(basis, rng, sup_bound=0.05, max_degree=3):
    terms = []
    for _ in range(4):
        d = rng.randint(1, max_degree)
        p = rng.randint(0, d)
        q = d - p
        i = rng.randint(0, dim_hpq(basis.n, p, q) - 1)
        terms.append((p, q, i, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    f = SpectralFunction.from_terms(basis, terms).realized()
    sup = f.sup_norm_estimate(seed=rng.randint(0, 10**6))
    scale = sup_bound / sup if sup > 0 else 0.0
    return ContactPerturbation(basis, f.scale(scale), taylor_depth=12, label="random")


class TestPerturbation:
    def test_realness_enforced(self, basis12):
        lopsided = SpectralFunction.from_terms(basis12, [(2, 0, 0, QI(1))])
        with pytest.raises(ConfigError):
            ContactPerturbation(basis12, lopsided)

    def test_from_terms_symmetrizes(self, basis12):
        pert = ContactPerturbation.from_terms(basis12, [(2, 0, 0, QI(1, 1))], epsilon=0.5)
        assert pert.upsilon.is_real(0.0)

    def test_taylor_depth_guard(self, basis12):
        with pytest.raises(ConfigError):
            ContactPerturbation(basis12, SpectralFunction.zero(basis12), taylor_depth=0)

    def test_weight_positive_definite(self, basis12):
        pert = ContactPerturbation(basis12, phi11(basis12).scale(0.05), label="small")
        W = pert.weight()
        assert W.min_eigenvalue_bound > 0.5
        assert W.tail_bound < 1e-12


class TestQhat:
    def test_zero_exponent(self, basis12):
        q = qhat(ContactPerturbation(basis12, SpectralFunction.zero(basis12)))
        assert q.exact and not q.qhat.coeffs

    def test_pluriharmonic_exponent_gives_zero(self, basis12):
        # any combination of p q = 0 blocks lies in Ker P, so Q_hat = 0 exactly
        pert = ContactPerturbation.from_terms(
            basis12, [(3, 0, 1, QI(1, -2)), (2, 0, 0, QI(5)), (0, 0, 0, QI(1))], epsilon=0.1
        )
        q = qhat(pert)
        assert q.exact and not q.qhat.coeffs
        value, passed = total_q(q)
        assert value == 0.0 and passed

    def test_eigenblock_exponent(self, basis12):
        # P(eps phi) = 16 eps phi; Q_hat = exp(-2 Upsilon) * that
        eps = 0.03
        pert = ContactPerturbation(basis12, phi11(basis12).scale(eps), label="eps phi")
        p_ups = pert.upsilon.apply_diagonal(critical_gjms(basis12))
        assert (p_ups - phi11(basis12).scale(16 * eps)).norm() < 1e-14
        q = qhat(pert)
        assert not q.exact
        # pointwise oracle: Q_hat(x) = exp(-2 Upsilon(x)) * 16 eps phi(x)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pts = [z[:, 0], z[:, 1]]
        ups_vals = pert.upsilon.to_poly_float().evaluate(0.0, pts).real
        phi_vals = phi11(basis12).to_poly_float().evaluate(0.0, pts).real
        direct = np.exp(-2 * ups_vals) * 16 * eps * phi_vals
        via_q = q.qhat.to_poly_float().evaluate(0.0, pts).real
        assert np.max(np.abs(direct - via_q)) < 1e-6


class TestTotalQ:
    def test_eigenblock_case_tiny(self, basis12):
        pert = ContactPerturbation(basis12, phi11(basis12).scale(0.04), label="phi")
        value, passed = total_q(qhat(pert))
        assert passed and abs(value) <= 1e-9

    def test_random_small_perturbations(self, basis12):
        rng = random.Random(101)
        for _ in range(4):
            pert = random_small_perturbation(basis12, rng)
            value, passed = total_q(qhat(pert))
            assert passed and abs(value) <= 1e-8


class TestSolvability:
    def test_pluriharmonic_datum_rejected_exactly(self, basis12):
        # Q entirely inside the kernel: obstruction equals ||Q|| exactly
        Q = SpectralFunction.from_terms(
            basis12, [(1, 0, 0, QI(1)), (0, 1, 0, QI(1))]
        )
        qdat = QData(Q, ContactPerturbation(basis12, SpectralFunction.zero(basis12)), True, 12, 0.0)
        rep = solvability_check(qdat)
        assert not rep.solvable
        assert rep.obstruction_norm2_exact == str(Q.norm2().re)
        assert abs(rep.obstruction_norm - Q.norm()) < 1e-15

    def test_generated_qhat_is_solvable(self, basis12):
        rng = random.Random(5)
        pert = random_small_perturbation(basis12, rng)
        rep = solvability_check(qhat(pert))
        assert rep.solvable
        assert rep.obstruction_norm_interior <= 1e-8

    def test_eigenblock_datum_has_zero_obstruction(self, basis12):
        Q = phi11(basis12).scale(QI(16))
        qdat = QData(Q, ContactPerturbation(basis12, SpectralFunction.zero(basis12)), True, 12, 0.0)
        rep = solvability_check(qdat)
        assert rep.solvable
        assert rep.obstruction_norm == 0.0
        assert rep.obstruction_norm2_exact == "0"

    def test_frame_independence_of_pairings(self, basis12):
        # the kernel pairings of corresponding data agree across frames:
        # <f, Q_hat>_hat = <f, Q>_std for f in Ker P
        rng = random.Random(7)
        pert = random_small_perturbation(basis12, rng, sup_bound=0.08)
        Q_std = phi11(basis12).scale(QI(16)) + SpectralFunction.from_terms(
            basis12, [(2, 1, 1, QI(1)), (1, 2, 1, QI(1))]
        )
        q_std_vec = Q_std.to_vector()
        # transported datum in the hatted frame
        P_d = critical_gjms(basis12).to_diag_vector(basis12)
        M = pert.multiplier_matrix()
        frame = RealFrame(basis12)  # M acts on frame coefficients
        q_hat_vec = frame.from_frame(taylor_exp_apply(
            -M, pert.K, frame.to_frame(q_std_vec + P_d * pert.upsilon.to_vector())))
        qdat_hat = QData(
            SpectralFunction.from_vector(basis12, q_hat_vec), pert, False, pert.K, 0.0
        )
        rep_hat = solvability_check(qdat_hat)
        ker = kernel_mask(basis12)
        std_pairings = q_std_vec[ker]
        diff = np.array(rep_hat.pairings_std) - std_pairings
        assert np.max(np.abs(diff)) <= 1e-8


class TestSolve:
    def test_exact_eigenblock_solve(self, basis12):
        Q = phi11(basis12).scale(QI(16))
        qdat = QData(Q, ContactPerturbation(basis12, SpectralFunction.zero(basis12)), True, 12, 0.0)
        rep = solve_zero_q(qdat)
        assert rep.residual == 0.0
        assert (rep.upsilon_sol + phi11(basis12)).norm() < 1e-15
        assert rep.final_q_norm == 0.0
        assert rep.notes["mode"] == "exact_diagonal"

    def test_zero_datum(self, basis12):
        zero = SpectralFunction.zero(basis12)
        qdat = QData(zero, ContactPerturbation(basis12, zero), True, 12, 0.0)
        rep = solve_zero_q(qdat)
        assert rep.residual == 0.0
        assert not rep.upsilon_sol.coeffs

    def test_obstructed_datum_raises(self, basis12):
        Q = SpectralFunction.from_terms(basis12, [(1, 0, 0, QI(1)), (0, 1, 0, QI(1))])
        qdat = QData(Q, ContactPerturbation(basis12, SpectralFunction.zero(basis12)), True, 12, 0.0)
        with pytest.raises(ObstructionError) as exc:
            solve_zero_q(qdat)
        assert abs(exc.value.obstruction_norm - Q.norm()) < 1e-12

    def test_round_trip_perturbed_frame(self, basis12):
        # Q_hat from a perturbation solves back to a kernel shift of -Upsilon
        eps = 0.05
        pert = ContactPerturbation(basis12, phi11(basis12).scale(eps), label="round")
        qd = qhat(pert)
        rep = solve_zero_q(qd)
        assert rep.notes["mode"] == "weighted_closed_form"
        total = pert.upsilon + rep.upsilon_sol
        drift = total.apply_diagonal(critical_gjms(basis12)).norm()
        assert drift <= 1e-7
        assert rep.final_q_norm <= 1e-6
        assert rep.final_q_norm <= max(10 * rep.residual, 1e-12)
        assert rep.upsilon_sol.is_real(1e-10)

    def test_solve_then_verify_bound(self, basis12):
        rng = random.Random(11)
        pert = random_small_perturbation(basis12, rng)
        rep = solve_zero_q(qhat(pert))
        assert rep.final_q_norm <= max(10 * rep.residual, 1e-10)


class TestConformalCovariance:
    def test_dual_route_transport(self, basis12):
        # the Galerkin matrix W^{-1} P_diag must match the direct transport
        # route E_K(-M) P_diag on the interior blocks
        pert = ContactPerturbation(basis12, phi11(basis12).scale(0.05), label="cov")
        W = pert.weight()
        P_d = np.diag(critical_gjms(basis12).to_diag_vector(basis12))
        route_weight = W.solve(P_d)
        M = pert.multiplier_matrix()
        route_taylor = taylor_exp_matrix(-M, pert.K) @ P_d
        inter = interior_mask(basis12)
        diff = (route_weight - route_taylor)[np.ix_(inter, inter)]
        scale = np.linalg.norm(P_d, 2)
        assert np.linalg.norm(diff, 2) / scale <= 1e-10


class TestFinalVerification:
    def test_recompute_matches_transformation_law(self, basis12):
        # for data generated by qhat the two final-frame routes agree:
        # transformation law on (Q_hat, Upsilon_sol) vs direct qhat at the
        # total exponent
        eps = 0.04
        pert = ContactPerturbation(basis12, phi11(basis12).scale(eps), label="fin")
        qd = qhat(pert)
        rep = solve_zero_q(qd)
        via_law = recompute_final_q_norm(qd, rep.upsilon_sol)
        total = (pert.upsilon + rep.upsilon_sol).realized()
        pert_total = ContactPerturbation(basis12, total, taylor_depth=12)
        via_total = qhat(pert_total).qhat.norm()
        assert via_law <= 1e-6 and via_total <= 1e-6


def galerkin_final_q_norm(qdata, upsilon_sol):
    """The former final-Q value: ||T_K(-M_sol) r|| with the full-degree multiplier."""
    basis = qdata.frame.basis
    P_d = critical_gjms(basis).to_diag_vector(basis)
    frame = RealFrame(basis)  # the weight and M_sol act on frame coefficients
    resid = (qdata.frame.weight().solve(frame.to_frame(P_d * upsilon_sol.to_vector()))
             + frame.to_frame(qdata.vector()))
    M = full_context(basis).mult_matrix(upsilon_sol.to_poly_float().scale(float(basis.n + 1)))
    return float(np.linalg.norm(taylor_exp_apply(-M, qdata.frame.K, resid)))


def test_final_q_bound_dominates_galerkin_value(basis8):
    # e^{(n+1) B(Upsilon_sol)} ||r|| is never below ||T_K(-M_sol) r||
    rng = random.Random(3)
    for _ in range(3):
        qd = qhat(random_small_perturbation(basis8, rng, sup_bound=0.08))
        sol = solve_zero_q(qd).upsilon_sol
        bound = recompute_final_q_norm(qd, sol)
        assert galerkin_final_q_norm(qd, sol) <= bound <= 1e-6


def test_tail_bound_rests_on_certified_sup(basis12):
    pert = ContactPerturbation(basis12, phi11(basis12).scale(0.05), label="tail")
    bound = pert.upsilon.sup_norm_bound()
    assert bound >= pert.sup_estimate() > 0
    x = (pert.n + 1) * bound
    assert pert.exp_tail_bound() == x ** (pert.K + 1) / math.factorial(pert.K + 1) * math.exp(x)


class _Tail(ContactPerturbation):
    """exp_tail_bound at a given x = (n+1) B(Upsilon) and depth K."""

    def __init__(self, x, K):
        self.x, self.K = x, K

    def multiplier_norm_bound(self):
        return self.x


def test_tail_bound_past_the_float_range_of_the_factorial():
    # (K+1)! leaves the float range at K = 170, where the closed form raised
    # OverflowError; the tail stays an upper bound on x^{K+1}/(K+1)! e^x
    # (rational, with an upper bound on e^x), inf past the range, 0 at x = 0.
    # Rounded up, a term below the subnormal range stops at a few of the
    # smallest subnormals, then times e^x
    from fractions import Fraction

    for x in (0.05, 0.3, 1.73, 5.0):
        for K in (1, 12, 50, 169):
            assert _Tail(x, K).exp_tail_bound() == x ** (K + 1) / math.factorial(K + 1) * math.exp(x)
    for x in (0.05, 0.3, 1.73, 5.0, 100.0):
        for K in (170, 200, 1000):
            got = _Tail(x, K).exp_tail_bound()
            exact = Fraction(x) ** (K + 1) / math.factorial(K + 1)
            tail = exact * Fraction(math.exp(x))
            floor = Fraction(2**-1072) * Fraction(math.exp(x))
            assert tail * (1 - Fraction(2**-50)) <= Fraction(got) <= tail * Fraction(1 + 1e-12) + floor
    for K in (12, 200):
        assert _Tail(0.0, K).exp_tail_bound() == 0.0
    assert _Tail(800.0, 200).exp_tail_bound() == math.inf
    assert _Tail(1e30, 12).exp_tail_bound() == math.inf


# the bidegrees of the benchmark's draws (perfbench.workloads.DRAW_SHAPE): a
# real (1,1) term, a degree-3 conjugate pair and two pluriharmonic pairs
DRAW_SHAPE = ((1, 1), (2, 1), (1, 0), (2, 0))


def shaped_perturbation(basis, seed, sup_bound=0.05):
    """A real Upsilon of the benchmark's shape whose certified sup bound is sup_bound."""
    rng = np.random.default_rng(seed)
    terms = []
    for p, q in DRAW_SHAPE:
        i = int(rng.integers(dim_hpq(basis.n, p, q)))
        terms.append((p, q, i, complex(rng.uniform(-1, 1), 0.0 if p == q else rng.uniform(-1, 1))))
    f = SpectralFunction.from_terms(basis, terms).realized()
    return ContactPerturbation(basis, f.scale(sup_bound / f.sup_norm_bound()), label="shaped")


def dense_partial_inverse(P_d, W, ker, x):
    """G x = (I - Pi) P_d^+ W (I - Pi) x with the dense W; Pi's rows are W_KK^{-1} W_K:."""
    rows = np.linalg.solve(W[np.ix_(ker, ker)], W[ker])
    y = np.array(x, dtype=complex)
    y[ker] -= rows @ y
    y = W @ y
    y *= np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, P_d))
    y[ker] -= rows @ y
    return y


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operator_solve_matches_dense_partial_inverse(basis12, seed):
    # the matrix-free Upsilon_sol against -G Q_hat from the dense weight
    pert = shaped_perturbation(basis12, seed)
    qd = qhat(pert)
    rep = solve_zero_q(qd)
    frame = RealFrame(basis12)
    P_d = critical_gjms(basis12).to_diag_vector(basis12)
    x = frame.to_frame(qd.vector())
    ref_vec = frame.from_frame(-dense_partial_inverse(P_d, pert.weight().matrix,
                                                      kernel_mask(basis12), x))
    ref = SpectralFunction.from_vector(basis12, ref_vec).realized().to_vector()
    got = rep.upsilon_sol.to_vector()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_operator_solve_matches_dense_partial_inverse_n3(basis_n3_N4):
    # the same agreement at n = 3, N = 4, where every Pi reads (W Y)_K
    # from the one Horner operator (W^T = W for the symmetric multiplier)
    pert = shaped_perturbation(basis_n3_N4, 3, sup_bound=0.1)
    qd = qhat(pert)
    rep = solve_zero_q(qd)
    frame = RealFrame(basis_n3_N4)
    P_d = critical_gjms(basis_n3_N4).to_diag_vector(basis_n3_N4)
    x = frame.to_frame(qd.vector())
    ref_vec = frame.from_frame(-dense_partial_inverse(P_d, pert.weight().matrix,
                                                      kernel_mask(basis_n3_N4), x))
    ref = SpectralFunction.from_vector(basis_n3_N4, ref_vec).realized().to_vector()
    got = rep.upsilon_sol.to_vector()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_obstructed_floating_datum_raises_n3(basis_n3_N4):
    # a floating datum with pluriharmonic components in a perturbed frame at
    # n = 3: the solve refuses it, with a weighted obstruction norm at least
    # sqrt(y^T W_KK^{-1} y) from the dense weight
    pert = shaped_perturbation(basis_n3_N4, 5, sup_bound=0.1)
    rng = np.random.default_rng(3)
    Q = SpectralFunction.from_vector(
        basis_n3_N4, rng.standard_normal(basis_n3_N4.total_dim)).realized()
    with pytest.raises(ObstructionError) as exc:
        solve_zero_q(QData(Q, pert, False, pert.K, 0.0))
    W = pert.weight().matrix
    ker = kernel_mask(basis_n3_N4)
    y = (W @ RealFrame(basis_n3_N4).to_frame(Q.to_vector()).real)[ker]
    ref = math.sqrt(y @ np.linalg.solve(W[np.ix_(ker, ker)], y))
    assert ref > 1e-8 and exc.value.obstruction_norm >= ref * (1 - 1e-13)


def test_operator_solve_matches_dense_partial_inverse_n2(basis_n2_N8):
    # the same agreement at n = 2, N = 8 (D = 2079), and every conjugate
    # gradient solve of the route within the cap its condition bound gives
    pert = shaped_perturbation(basis_n2_N8, 4)
    qd = qhat(pert)
    rep = solve_zero_q(qd)
    weight = pert.weight()
    assert len(weight.cg_iterations) == 4  # two in the solvability check, two in G
    assert max(weight.cg_iterations) == rep.notes["cg_iterations_max"] <= weight.cg_iteration_cap
    frame = RealFrame(basis_n2_N8)
    P_d = critical_gjms(basis_n2_N8).to_diag_vector(basis_n2_N8)
    x = frame.to_frame(qd.vector())
    ref_vec = frame.from_frame(-dense_partial_inverse(P_d, weight.matrix,
                                                      kernel_mask(basis_n2_N8), x))
    ref = SpectralFunction.from_vector(basis_n2_N8, ref_vec).realized().to_vector()
    got = rep.upsilon_sol.to_vector()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("cg_tol", [galerkin.CG_TOL, 1e-2])
def test_obstruction_norm_never_below_the_dense_value(basis8, monkeypatch, cg_tol):
    # a floating datum with kernel components in a perturbed frame: the
    # reported weighted obstruction is at least sqrt(y^T W_SS^{-1} y) from a
    # dense solve, also when conjugate gradients stops early (cg_tol 1e-2)
    monkeypatch.setattr(galerkin, "CG_TOL", cg_tol)
    pert = shaped_perturbation(basis8, 6, sup_bound=0.1)
    rng = np.random.default_rng(6)
    Q = SpectralFunction.from_vector(
        basis8, rng.standard_normal(basis8.total_dim)).realized()
    rep = solvability_check(QData(Q, pert, False, pert.K, 0.0))
    W = pert.weight().matrix
    frame = RealFrame(basis8)
    wq = W @ frame.to_frame(Q.to_vector()).real
    for mask, got in ((kernel_mask(basis8), rep.obstruction_norm),
                      (kernel_mask(basis8) & interior_mask(basis8), rep.obstruction_norm_interior)):
        y = wq[mask]
        ref = math.sqrt(y @ np.linalg.solve(W[np.ix_(mask, mask)], y))
        assert ref * (1 - 1e-13) <= got <= ref * (1 + (1e-12 if cg_tol < 1e-15 else 1e-2))


def test_solve_never_forms_the_dense_weight(basis12, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense weight or dense solver on the zero-Q route")

    monkeypatch.setattr(galerkin, "taylor_exp_matrix", refuse)
    for name in ("eigh", "eigvalsh", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    pert = shaped_perturbation(basis12, 3)
    qd = qhat(pert)
    assert total_q(qd)[1] and solvability_check(qd).solvable
    rep = solve_zero_q(qd)
    assert rep.notes["weight_form"] == "operator" and rep.final_q_norm <= 1e-6
    with pytest.raises(AssertionError, match="dense weight"):
        pert.weight().matrix


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_bounds_dominate_dense_values(n, request):
    # every bound the matrix-free solve reports against the dense value it
    # replaces, at N = 8 (N = 4 for n = 3): the residual, the final-Q value,
    # the condition number and the weight's eigenvalue range
    basis = request.getfixturevalue({1: "basis8", 2: "basis_n2_N8", 3: "basis_n3_N4"}[n])
    pert = shaped_perturbation(basis, seed=n, sup_bound=0.1)
    qd = qhat(pert)
    rep = solve_zero_q(qd)
    weight = pert.weight()
    W = weight.matrix
    lam = scipy.linalg.eigvalsh(W)
    assert 0 < weight.min_eigenvalue_bound <= lam[0]
    assert lam[-1] <= weight.max_eigenvalue_bound
    assert rep.weight_min_eigenvalue_bound == weight.min_eigenvalue_bound

    P_d = critical_gjms(basis).to_diag_vector(basis)
    frame = RealFrame(basis)
    r = weight.solve(frame.to_frame(P_d * rep.upsilon_sol.to_vector())) + frame.to_frame(qd.vector())
    assert math.sqrt(np.vdot(r, W @ r).real) <= rep.residual
    factor = math.exp((n + 1) * rep.upsilon_sol.sup_norm_bound())
    assert factor * np.linalg.norm(r) <= rep.final_q_norm <= 1e-6

    # the condition number the solver reported before, from the Schur route
    # (held to the generalized eigensolver by test_parametrix at N = 8 for
    # n = 1 and N = 5 for n = 2)
    lam = nonzero_eigenvalues(P_d, weight, kernel_mask(basis))
    assert lam.size == (~kernel_mask(basis)).sum()
    assert lam[-1] / lam[0] <= rep.condition_bound
    assert rep.condition is None
