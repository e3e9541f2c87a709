"""Zero Q-curvature solver on conformal perturbations of the sphere.

The standard contact form is pseudo-Einstein, so its Q-curvature vanishes
and the transformation law at the critical weight reduces to

    Q_hat = e^{-(n+1) Upsilon} P Upsilon        (theta_hat = e^Upsilon theta).

Everything downstream follows from three facts realized exactly on the
truncation: P kills the pluriharmonic blocks, P is self-adjoint, and the
hatted volume density is e^{(n+1) Upsilon}.  Consequently the total
Q-curvature integral telescopes to the constant-block coefficient of
P Upsilon (zero), a generated Q_hat is always orthogonal to the kernel in
the hatted inner product, and the zero-Q solve is Upsilon = -G Q_hat with
the partial inverse from the parametrix engine.

The conformal factors e^{+-(n+1) Upsilon} are degree-K Taylor polynomials
projected to the truncation; the recorded tail bound quantifies the only
approximation in the pipeline.  Each frame owns its Galerkin data: a
ContactPerturbation builds the multiplier matrix of (n+1) Upsilon on a
context of Upsilon's own degree, and the weight from it, once, so every
function here takes only the frame's data.

The weight acts as an operator (galerkin.InnerProductWeight): the Q-datum,
the solvability check, the solve and the final verification use W only
applied to vectors by one pass of the powers of M (taylor_exp_apply) and
solves with W_KK by conjugate gradients,
and report certified bounds built from the weight's eigenvalue bounds in
place of values that would need the dense W.

The multiplier and the weight are real matrices in the real frame of the
basis (galerkin.RealFrame).  Spectral functions keep their coefficients
in the basis e; the functions here move a vector into the frame
(to_frame) before the multiplier or the weight acts on it, and the solution
back out (from_frame).  The frame maps the kernel coordinates onto
themselves, so the kernel pairings are reported in the basis e as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .defaults import OBSTRUCTION_TOL, TAYLOR_DEPTH
from .errors import ConfigError, NumericalError, ObstructionError
from .galerkin import (
    PRUNE_TOL,
    UNIT_ROUNDOFF,
    GalerkinContext,
    InnerProductWeight,
    RealFrame,
    check_exp_range,
    float_bound,
    gamma,
    norm2_upper,
    sector_groups,
    symmetric_part,
    taylor_exp_apply,
)
from .harmonics import HarmonicBasis
from .parametrix import apply_partial_inverse, interior_mask, kernel_mask
from .scalars import QI, parse_qi
from .spectral import SpectralFunction, critical_gjms, gjms_diag_vector

# the keys of a perturbation file (qdata_terms is read by qcurv)
PERTURBATION_KEYS = frozenset(
    {"label", "epsilon", "terms", "taylor_depth", "normalize_sup", "qdata_terms"})


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return _is_int(x) or isinstance(x, float)


def _parse_coeff(c):
    if isinstance(c, str):
        try:
            return parse_qi(c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if _is_number(c):
        return complex(c)
    if isinstance(c, list) and len(c) == 2 and all(_is_number(x) for x in c):
        return complex(c[0], c[1])
    raise ConfigError(f"coefficient must be a number, an exact string or [re, im]: {c!r}")


def parse_terms(items):
    """[(p, q, index, coeff)] from a file's [{"p", "q", "index", "coeff"}] list.

    A coefficient is a number or a [re, im] pair (read as complex) or an
    exact string "a/b+c/di" (read as QI).  A term without integer p and q
    (and index, if given), any other coefficient, or items that are not a
    list, is a ConfigError.
    """
    if not isinstance(items, list):
        raise ConfigError(f"coefficient terms must be a list: {items!r}")
    terms = []
    for item in items:
        if not (isinstance(item, dict) and "p" in item and "q" in item
                and all(_is_int(item.get(k, 0)) for k in ("p", "q", "index"))):
            raise ConfigError(f"coefficient term needs integer p, q and index: {item!r}")
        terms.append((item["p"], item["q"], item.get("index", 0), _parse_coeff(item.get("coeff"))))
    return terms


class ContactPerturbation:
    """Conformal exponent Upsilon with its truncation and Taylor depth.

    Upsilon must be real valued; a perturbation built from terms is
    symmetrized ((f + conj f)/2) before validation.
    """

    def __init__(self, basis: HarmonicBasis, upsilon: SpectralFunction,
                 taylor_depth=TAYLOR_DEPTH, label=""):
        if not (_is_int(taylor_depth) and taylor_depth >= 1):
            raise ConfigError(f"taylor depth must be an integer >= 1: {taylor_depth!r}")
        if not upsilon.is_real(tol=1e-12):
            raise ConfigError("perturbation exponent must be real valued")
        self.basis = basis
        self.upsilon = upsilon
        self.K = taylor_depth
        self.label = label or "upsilon"
        self._sup = None
        self._mult = self._mult_bound = None  # M and A >= ||M||_2 (multiplier_matrix)
        self._weight = None

    @classmethod
    def from_terms(cls, basis, terms, epsilon=1.0, taylor_depth=TAYLOR_DEPTH,
                   normalize_sup=False, label=""):
        if not (_is_number(epsilon) and math.isfinite(epsilon)):
            raise ConfigError(f"epsilon must be a finite real number: {epsilon!r}")
        if not isinstance(normalize_sup, bool):
            raise ConfigError(f"normalize_sup must be true or false: {normalize_sup!r}")
        f = SpectralFunction.from_terms(basis, terms).realized()
        if normalize_sup:
            sup = f.sup_norm_estimate()
            if sup > 0:
                f = f.scale(1.0 / sup)
        return cls(basis, f.scale(epsilon), taylor_depth, label=label)

    @classmethod
    def from_dict(cls, basis, data):
        """Perturbation file: {"terms": [{"p","q","index","coeff"}], "epsilon", ...}.

        A key outside PERTURBATION_KEYS is a ConfigError, so a misspelled
        key cannot fall back to its default unseen.
        """
        unknown = sorted(set(data) - PERTURBATION_KEYS)
        if unknown:
            raise ConfigError(f"unknown perturbation file keys {unknown}; "
                              f"accepted: {sorted(PERTURBATION_KEYS)}")
        return cls.from_terms(
            basis,
            parse_terms(data.get("terms", [])),
            epsilon=data.get("epsilon", 1.0),
            taylor_depth=data.get("taylor_depth", TAYLOR_DEPTH),
            normalize_sup=data.get("normalize_sup", False),
            label=data.get("label", "perturbation"),
        )

    @property
    def n(self):
        return self.basis.n

    @property
    def N(self):
        return self.basis.N

    def is_zero(self):
        return not self.upsilon.coeffs

    def sup_estimate(self):
        """Sampled sup|Upsilon| (an estimate: it can fall below the true sup)."""
        if self._sup is None:
            self._sup = self.upsilon.sup_norm_estimate()
        return self._sup

    def multiplier_norm_bound(self):
        """a = (n+1) B(Upsilon) >= (n+1) sup|Upsilon| >= ||M||, M the exact multiplier matrix.

        B(Upsilon) >= sup|Upsilon| (SpectralFunction.sup_norm_bound), and a
        compression of multiplication by a function has norm at most its sup.
        """
        return (self.n + 1) * self.upsilon.sup_norm_bound()

    def exp_tail_bound(self):
        """Taylor tail |x|^{K+1}/(K+1)! e^|x| of e^x at x = (n+1) B(Upsilon).

        x bounds (n+1) |Upsilon| at every point of the sphere, so this bounds
        the tail everywhere.  Where a part of it leaves the float range
        ((K+1)! from K = 170 on, x^{K+1} or e^x), x^{K+1}/(K+1)! is formed
        as the product of the factors x/j and then times e^x, every step
        rounded up, so it stays an upper bound: inf where the bound itself
        is past the range, 0.0 at x = 0.
        """
        x = self.multiplier_norm_bound()
        k = self.K + 1
        try:
            return x ** k / math.factorial(k) * math.exp(x)
        except OverflowError:
            pass
        if x == 0:
            return 0.0

        def up(v):
            return math.nextafter(v, math.inf)

        term = 1.0
        for j in range(1, k + 1):
            term = up(term * up(x / j))
        return up(term * up(math.exp(x))) if x < 709 else math.inf

    def multiplier_matrix(self):
        """Real-frame Galerkin matrix of multiplication by (n+1) Upsilon (float64 CSR).

        Built once, on a GalerkinContext of Upsilon's own degree (at least
        one); the context is dropped as soon as the matrix and the a-priori
        bound on its assembly rounding are formed.  Upsilon is real, so the
        frame matrix is real and symmetric: of the assembled matrix M_c the
        symmetric part of Re M_c is kept (galerkin.symmetric_part), exactly
        symmetric, without its rounding residues (entries of size at most
        galerkin.PRUNE_TOL max|Re M_c|).  Its rows carry their torus-sector
        groups (galerkin.sector_groups), labelled and packed into block rows
        on the first product with a wide block (CSR), so a run whose products
        are all vectors never builds them.

        With it comes A = a + s >= ||M||_2, the weight's multiplier_bound,
        summed in Fractions and rounded up: a = multiplier_norm_bound() bounds
        the Hermitian part H of the exact Galerkin matrix in any orthonormal
        frame, and s = e_asm + gamma_1 norm2_upper(M) + L 2^-1074 + p >= ||M - H||:
        M_c = H + iB + E with ||E|| <= e_asm (GalerkinContext.assembly_rounding)
        and B real symmetric (Upsilon's imaginary part within the constructor's
        tolerance), which Re drops exactly; the average rounds once per entry,
        within gamma_1 |M| plus 2^-1075 where the halving leaves the normal
        range (Higham, Accuracy and Stability of Numerical Algorithms, 2.2; L
        the longest row), and p bounds the entries the cut drops, with their rounding.
        """
        if self._mult is None:
            degree = max((p + q for (p, q) in self.upsilon.coeffs), default=0)
            ctx = GalerkinContext(self.basis, mult_degree=max(1, degree))
            scale = float(self.n + 1)
            M = ctx.mult_matrix(self.upsilon.to_poly_float().scale(scale))
            # to_poly_float rounds 8 times per term (the coefficient, norm2, the
            # square root, the quotient, the basis coefficient, the complex
            # product's 3) and once per further term it adds; the scale by n+1
            # once more
            roundings = 8 + sum(1 for _ in self.upsilon.terms())
            e_asm = ctx.assembly_rounding(self.upsilon.abs_poly_float().scale(scale), roundings)
            del ctx
            M = M.real  # the complex M goes before its symmetric part is built
            M, pruned = symmetric_part(M, PRUNE_TOL * float(np.abs(M.data).max(initial=0.0)))
            M.row_groups = partial(sector_groups, self.basis)
            charge = (Fraction(e_asm) + Fraction(gamma(1)) * Fraction(norm2_upper(M))
                      + M.max_row_length() * Fraction(math.ulp(0.0)) + Fraction(pruned))
            a = Fraction(self.multiplier_norm_bound())
            self._mult_bound = float_bound(a + charge, up=True)
            self._mult = M
        return self._mult

    def weight(self) -> InnerProductWeight:
        """Gram operator of the basis under e^{(n+1) Upsilon} dsigma (Taylor depth K), real frame."""
        if self._weight is None:
            M = self.multiplier_matrix()
            self._weight = InnerProductWeight(M, taylor_depth=self.K,
                                              multiplier_bound=self._mult_bound)
        return self._weight


@dataclass
class QData:
    """Q-curvature data of a frame: Q_hat as a truncated spectral function."""

    qhat: SpectralFunction
    frame: ContactPerturbation
    exact: bool
    taylor_depth: int
    tail_bound: float

    def vector(self):
        return self.qhat.to_vector()


def qhat(pert: ContactPerturbation) -> QData:
    """Q_hat = e^{-(n+1) Upsilon} P Upsilon on the truncation.

    Exact in rational mode whenever P Upsilon vanishes identically (Upsilon
    pluriharmonic or zero); otherwise the conformal factor acts through its
    degree-K Taylor matrix and the result is floating.  A factor past the
    float range raises NumericalError before it is applied (check_exp_range).
    """
    basis = pert.basis
    P = critical_gjms(basis)
    p_ups = pert.upsilon.apply_diagonal(P)
    if p_ups.is_exact and not p_ups.coeffs:
        return QData(SpectralFunction.zero(basis), pert, True, pert.K, 0.0)
    check_exp_range(pert.multiplier_norm_bound())
    frame = RealFrame(basis)
    M = pert.multiplier_matrix()
    qvec = frame.from_frame(taylor_exp_apply(-M, pert.K, frame.to_frame(p_ups.to_vector())))
    return QData(
        SpectralFunction.from_vector(basis, qvec),
        pert,
        False,
        pert.K,
        pert.exp_tail_bound(),
    )


def total_q(qdata: QData, tol=1e-8):
    """Total Q-curvature integral int Q_hat e^{(n+1) Upsilon} dsigma.

    Computed up to the fixed positive volume constant of theta ^ (dtheta)^n
    (the measure is normalized to mass one).  Returns (value, passed); a
    factor past the float range (check_exp_range) or a value that is not
    finite raises NumericalError.
    """
    if qdata.exact and not qdata.qhat.coeffs:
        return 0.0, True
    check_exp_range(qdata.frame.multiplier_norm_bound())
    M = qdata.frame.multiplier_matrix()
    # the constant function is its own frame element, coordinate 0 in both
    x = RealFrame(qdata.frame.basis).to_frame(qdata.vector())
    value = float(taylor_exp_apply(M, qdata.frame.K, x)[0].real)
    if not math.isfinite(value):
        raise NumericalError(f"total Q is not finite ({value}): Upsilon too large for the float range")
    return value, abs(value) <= tol


@dataclass
class SolveReport:
    solvable: bool
    obstruction_norm: float
    obstruction_norm_interior: float
    kernel_dim: int
    pairings_std: list
    obstruction_norm2_exact: str | None = None
    upsilon_sol: SpectralFunction | None = None
    residual: float | None = None
    condition: float | None = None  # exact-diagonal route
    condition_bound: float | None = None  # operator route
    weight_min_eigenvalue_bound: float | None = None  # operator route
    final_q_norm: float | None = None
    notes: dict = field(default_factory=dict)

    def to_jsonable(self):
        out = {
            "solvable": self.solvable,
            "obstruction_norm": self.obstruction_norm,
            "obstruction_norm_interior": self.obstruction_norm_interior,
            "kernel_dim": self.kernel_dim,
            "obstruction_norm2_exact": self.obstruction_norm2_exact,
            "residual": self.residual,
            "final_q_norm": self.final_q_norm,
            "notes": self.notes,
        }
        for key in ("condition", "condition_bound", "weight_min_eigenvalue_bound"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.upsilon_sol is not None:
            out["upsilon_sol"] = [
                {"p": p, "q": q, "index": i, "re": complex(c).real, "im": complex(c).imag}
                for p, q, i, c in self.upsilon_sol.terms()
            ]
        return out


def _exact_kernel_norm2(q: SpectralFunction):
    total = QI(0)
    for (p, qq), vals in q.coeffs.items():
        if p * qq == 0:
            for v in vals:
                total = total + v * v.conjugate()
    return total.re


def solvability_check(qdata: QData, tol=OBSTRUCTION_TOL) -> SolveReport:
    """Obstruction of the zero-Q problem: projection of Q_hat onto Ker P.

    The kernel basis is the pluriharmonic coordinate block, exactly the
    kernel of the truncated operator in every frame, since
    P_hat = e^{-(n+1)Upsilon} P.  The obstruction norm is measured in the
    hatted inner product; the solvable flag uses the interior blocks so
    truncation-boundary leakage is not misread as a genuine obstruction.
    pairings_std records the frame-independent pairings against the
    standard-orthonormal kernel basis.

    In a perturbed frame the squared norm on a coordinate set S is
    y^T W_SS^{-1} y, y = (W q)_S.  The solve z ~ W_SS^{-1} y is iterative
    (InnerProductWeight.block_solve), so the report takes where it stopped
    into account: with r = y - W_SS z and W_SS symmetric,
    y^T W_SS^{-1} y = y^T z + z^T r + r^T W_SS^{-1} r exactly, and the last
    term is at most ||r||^2 / lambda_lb, so a solve stopped early cannot
    lower the reported norm.
    """
    basis = qdata.frame.basis
    ker = kernel_mask(basis)
    inter = interior_mask(basis)
    qvec = qdata.vector()

    exact_norm2 = None
    if qdata.exact and qdata.frame.is_zero():
        exact_norm2 = _exact_kernel_norm2(qdata.qhat)

    if qdata.frame.is_zero():
        pairings = qvec[ker]
        obstruction = float(np.linalg.norm(pairings))
        obstruction_int = float(np.linalg.norm(qvec[ker & inter]))
    else:
        weight = qdata.frame.weight()
        frame = RealFrame(basis)
        wq = weight.apply(frame.to_frame(qvec))
        pairings = frame.from_frame(wq)[ker]

        def kernel_norm(mask):
            y = wq[mask]
            z = weight.block_solve(mask, y)
            r = y - weight.block_apply(mask, z)
            norm2 = ((np.vdot(y, z) + np.vdot(z, r)).real
                     + np.vdot(r, r).real / weight.min_eigenvalue_bound)
            return math.sqrt(max(norm2, 0.0))

        obstruction = kernel_norm(ker)
        obstruction_int = kernel_norm(ker & inter)

    return SolveReport(
        solvable=obstruction_int <= tol,
        obstruction_norm=obstruction,
        obstruction_norm_interior=obstruction_int,
        kernel_dim=int(ker.sum()),
        pairings_std=[complex(x) for x in pairings],
        obstruction_norm2_exact=None if exact_norm2 is None else str(exact_norm2),
        notes={"kernel_basis": "pluriharmonic blocks"},
    )


def solve_zero_q(qdata: QData, tol=OBSTRUCTION_TOL) -> SolveReport:
    """Upsilon_sol = -G Q_hat, making the final frame e^{Upsilon_sol} theta_hat
    have zero Q-curvature up to the reported residual.

    Raises ObstructionError when the solvability check fails.  In the
    standard frame with exact data the solve is exact on the eigentable and
    reports the condition number of P on the nonzero blocks.  In a perturbed
    frame G is the closed form (I - Pi) P_d^+ W (I - Pi) applied to the
    vector Q_hat (parametrix.apply_partial_inverse) through the weight's
    operator core alone: W by one pass on vectors and solves with
    W_KK by conjugate gradients; the dense W is never formed.  The
    residual ||W^{-1} P_d u + x||_W (u the solution, x = Q_hat) is reported
    as its certified bound: with y = P_d u + W x it equals
    sqrt(y^T W^{-1} y) <= ||y|| / sqrt(lambda_min), and the computed W x is
    within rho ||x|| of the exact one (rho the weight's
    apply_rounding_bound, the rounding bound of a pass), so

        residual = (||y|| + (rho + 3u W_ub) ||x||) / sqrt(lambda_lb),

    with ||y|| taken times 1 + gamma_{D+2} for the rounding of forming it
    (_weighted_residual_bound).

    In place of the condition number the report gives
    condition_bound = (max P_C / min P_C) (W_ub / lambda_lb): every nonzero
    eigenvalue of the pencil P_d x = lambda W x lies in
    [min P_C / W_ub, max P_C / lambda_lb], C the coordinates outside K:
    they are P_C's Rayleigh quotients against the Schur complement S of
    W_KK, and S^{-1} = (W^{-1})_CC puts eig(S) inside W's spectrum.
    lambda_lb and W_ub are the weight's min_eigenvalue_bound and
    max_eigenvalue_bound.  The perturbed solve runs in the real frame:
    Q_hat moves in, Upsilon_sol moves back out, and machine-noise pruning
    and the residual act on the frame coefficients.
    """
    report = solvability_check(qdata, tol=tol)
    if not report.solvable:
        raise ObstructionError(
            f"Q-datum is obstructed (interior obstruction {report.obstruction_norm_interior:.3e})",
            obstruction_norm=report.obstruction_norm,
        )
    basis = qdata.frame.basis
    P = critical_gjms(basis)

    if qdata.frame.is_zero() and qdata.qhat.is_exact:
        G = P.partial_inverse()
        ups = qdata.qhat.apply_diagonal(G).scale(QI(-1))
        resid_fn = ups.apply_diagonal(P) + qdata.qhat
        # exact residual: nonzero only if Q had kernel components (excluded above)
        resid = resid_fn.norm()
        report.upsilon_sol = ups
        report.residual = float(resid)
        nonzero = [abs(float(v)) for v in P.table.values() if v]
        report.condition = max(nonzero) / min(nonzero) if nonzero else None
        report.notes["mode"] = "exact_diagonal"
    else:
        weight = qdata.frame.weight()
        frame = RealFrame(basis)
        P_d = gjms_diag_vector(basis)
        ker = kernel_mask(basis)
        x = frame.to_frame(qdata.vector())
        ups_x = -apply_partial_inverse(P_d, weight, ker, x)
        # drop coefficients at relative machine noise; everything downstream
        # (residual, final verification) is recomputed from the pruned solution
        noise = 1e-15 * max(1.0, float(np.max(np.abs(ups_x), initial=0.0)))
        ups_x[np.abs(ups_x) < noise] = 0.0
        # P_d is the same diagonal in the frame: its table is symmetric in p <-> q
        report.residual = _weighted_residual_bound(weight, P_d * ups_x, x) / math.sqrt(
            weight.min_eigenvalue_bound)
        P_C = P_d[~ker]
        if P_C.size:
            report.condition_bound = float(P_C.max() / P_C.min() * weight.max_eigenvalue_bound
                                           / weight.min_eigenvalue_bound)
        report.weight_min_eigenvalue_bound = weight.min_eigenvalue_bound
        ups = SpectralFunction.from_vector(basis, frame.from_frame(ups_x)).realized()
        report.upsilon_sol = ups
        report.notes["mode"] = "weighted_closed_form"
        report.notes["weight_form"] = "operator"
        report.notes["cg_iterations_max"] = max(weight.cg_iterations, default=0)
        report.notes["cg_iteration_cap"] = weight.cg_iteration_cap

    report.final_q_norm = recompute_final_q_norm(qdata, report.upsilon_sol)
    return report


def _weighted_residual_bound(weight: InnerProductWeight, p_ups, x):
    """(1 + gamma_{D+2}) ||y|| + (rho + 3u W_ub) ||x|| >= ||P_d u + W x||, y the
    computed P_d u + W x.

    rho ||x|| bounds the rounding of W x (apply_rounding_bound).  The sum
    and the product P_d u commit at most 2u ||y|| + 3u ||W x|| more, and the
    norm gamma_D ||y||: the gamma_{D+2} factor takes the parts in ||y||,
    and ||W x|| <= W_ub ||x|| (max_eigenvalue_bound).
    """
    y = p_ups + weight.apply(x)
    charge = weight.apply_rounding_bound + 3 * UNIT_ROUNDOFF * weight.max_eigenvalue_bound
    return ((1 + gamma(x.shape[0] + 2)) * float(np.linalg.norm(y))
            + charge * float(np.linalg.norm(x)))


def recompute_final_q_norm(qdata: QData, upsilon_sol: SpectralFunction):
    """Certified bound on the norm of the Q-curvature of e^{Upsilon_sol} theta_hat.

    The transformation law applied to the input Q-datum gives
    Q_final = e^{-(n+1) Upsilon_sol} r with r = Q_hat + P_hat Upsilon_sol.
    The truncated factor T_K(-M) (M the Galerkin matrix of multiplication
    by (n+1) Upsilon_sol) has ||T_K(-M)|| <= e^{||M||} and
    ||M|| <= (n+1) sup|Upsilon_sol| <= (n+1) B(Upsilon_sol), so
    e^{(n+1) B(Upsilon_sol)} ||r|| bounds ||T_K(-M) r|| without building M.
    In a perturbed frame r = W^{-1} y with y = P_d u + W q, and
    ||W^{-1} y|| <= ||y|| / lambda_min, so the bound is
    e^{(n+1) B(Upsilon_sol)} (||y|| + (rho + 3u W_ub) ||q||) / lambda_lb with
    the weight's rounding bound rho of a pass (see solve_zero_q); no solve with W.
    """
    basis = qdata.frame.basis
    P = critical_gjms(basis)
    factor = math.exp((basis.n + 1) * upsilon_sol.sup_norm_bound())
    if qdata.frame.is_zero() and qdata.qhat.is_exact and upsilon_sol.is_exact:
        resid = upsilon_sol.apply_diagonal(P) + qdata.qhat
        if not resid.coeffs:
            return 0.0
        return factor * float(np.linalg.norm(resid.to_vector()))
    p_ups = gjms_diag_vector(basis) * upsilon_sol.to_vector()
    # in the frame, where the weight acts; the frame change is unitary, so
    # the norms are the same in either coordinates
    frame = RealFrame(basis)
    weight = qdata.frame.weight()
    bound = _weighted_residual_bound(weight, frame.to_frame(p_ups), frame.to_frame(qdata.vector()))
    return factor * bound / weight.min_eigenvalue_bound
