"""Partial inverses, Szego projectors, and the parametrix chain.

The chain follows one recipe in two regimes:

    G_0   = N_n N_{n-2} ... N_{-n}       (partial inverses of the L_mu)
    Pi_0  = S + Sbar
    R_0   = P G_0 + Pi_0 - I
    A_0   = (I + R_0)^{-1}               (closed form on the sphere, else Woodbury)
    Pi_oo = Pi_0 A_0
    G_oo  = (I - Pi_oo) G_0 A_0

On the standard sphere everything is diagonal and the chain closes exactly:
R_0 = S Sbar has rank one, A_0 = I - R_0/2, Pi_oo equals the pluriharmonic
projection and G_oo the partial inverse of P, with every residual
identically zero in rational arithmetic.

In the perturbed regime P_hat = e^{-(n+1)Upsilon} P acts on the truncated
basis through the weighted Galerkin matrix W^{-1} P_diag, W = T_K(M) the
weight (the critical-weight transformation law makes the sesquilinear
form of P_hat equal the standard diagonal form).  S and Sbar become the
weight-orthogonal projectors onto the unchanged holomorphic /
antiholomorphic subspaces, and G_0 transports as G_0 M_w with w the
truncated conformal volume factor.  P_hat has exactly the kernel of
P_diag, the pluriharmonic coordinates K, so the final Pi and G have closed
forms: Pi is the W-orthogonal projector onto K and
G = (I - Pi) P_diag^+ W (I - Pi).  Applied to a vector
(apply_partial_inverse) G needs only the weight's operator core: W by
passes of the powers of M and solves with W_KK by conjugate gradients.
The pencil's spectrum is |K| exact zeros plus the nonzero eigenvalues of
the pencil of P_C and the Schur complement of W_KK: the spectrum command
writes them all from one Hermitian eigensolve on the dense W
(nonzero_eigenvalues), the chain reports the smallest with a certified
enclosure from a block iteration and no eigensolver
(low_eigenvalue_enclosure), and the zero-Q solver reports a bracket on
it from the weight's eigenvalue bounds.  The generalized
eigensolver (spectrum_matrix) is kept as a test oracle.

The matrix chain (build_chain_matrix) forms neither W nor W^{-1} nor
P_hat, and stores no D x D array: P_hat vanishes on the columns K, so it
needs W and W^{-1} only there, from one pass of the powers of M
(hatted_gjms), and every other member is a diagonal, factors with at most
2|K| rows or columns, or rows in K (S, Sbar, Pi_0, Pi_oo and Pi): Pi as
Pi_K:, the others as coefficients on [W_K:; Pi_K:].  Every chain identity
is recorded as a norm on the full truncation and on the interior blocks,
with its route: certified bounds derived from the chain's factors and
their a-priori defects, the cheap differences formed and measured, and
the identities the algebra makes exactly zero recorded as zero.

The perturbed chain runs in the real frame of the basis (galerkin.RealFrame),
where P is real and Upsilon, and so W, is real: every member is float64.
Only S is complex (szego_rows): the holomorphic functions are not real,
Sbar = conj(S) and Pi_0 = 2 Re S, so the chain keeps Pi_0 and a factor
of Im S.  The kernel, interior and complement masks and the diagonal
tables of P and G_0 are the same in both frames, and the frame change is
unitary, so every norm, eigenvalue and gate means what it does in the
basis e.

Reported residual norms are upper bounds on the spectral norm, never SVD
values: sqrt(||X||_1 ||X||_inf) (galerkin.norm2_upper) of a residual
formed as a matrix, or a bound derived from norms of factors and defects
plus a-priori rounding terms, so every gate on them is at least as strict
as a gate on the spectral norm.  A relative defect divides the upper bound
of its numerator by the lower bound max_j ||X e_j||_2
(galerkin.norm2_lower) of its denominator.  The weighted adjointness
defects solve nothing: X - W^{-1} X^* W = W^{-1} (Y - Y^*) with Y = W X,
so they divide a bound on ||Y - Y^*|| by the weight's certified lower
eigenvalue bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NumericalError
from .galerkin import (
    _DENSE_BLOCK,
    UNIT_ROUNDOFF,
    Columns,
    InnerProductWeight,
    RealFrame,
    blocked_matmul,
    eighth_blocks,
    gamma,
    norm2_lower,
    norm2_upper,
    norm2_upper_abs,
    real_matmul,
    row_slices,
    taylor_exp_apply,
    taylor_exp_mismatch,
)
from .harmonics import HarmonicBasis, dim_hpq
from .spectral import (
    DiagonalOperator,
    Truncation,
    critical_gjms,
    gjms_diag_vector,
    l_mu,
    pluriharmonic_proj,
    szego,
    szego_bar,
)


# ---------------------------------------------------------------------------
# diagnostics containers
# ---------------------------------------------------------------------------


@dataclass
class ChainDiagnostics:
    """Residuals of the chain identities; nothing is silently dropped.

    A residual recorded with a route says how its value was obtained:
    "factored" (a certified bound derived from the defects of the chain's
    factors), "dense" (norm2_upper of the residual formed as a matrix) or
    "structural" (zero by construction, not measured).
    """

    mode: str
    entries: dict = field(default_factory=dict)
    routes: dict = field(default_factory=dict)

    def record(self, name, value, route=None):
        self.entries[name] = value
        if route is not None:
            self.routes[name] = route

    def to_jsonable(self):
        out = {"mode": self.mode}
        for k, v in sorted(self.entries.items()):
            out[k] = str(v) if isinstance(v, Fraction) else v
        if self.routes:
            out["residual_routes"] = dict(sorted(self.routes.items()))
        return out


@dataclass
class ParametrixChain:
    n: int
    N: int
    mode: str  # "diagonal" | "matrix"
    members: dict
    diagnostics: ChainDiagnostics
    weight: InnerProductWeight | None = None
    basis: HarmonicBasis | None = None

    def member(self, name):
        """A stored member by name: a DiagonalOperator of the diagonal chain;
        of the matrix chain a diagonal, rows in K or a factor
        (build_chain_matrix), which the tests expand to full matrices."""
        return self.members[name]


# ---------------------------------------------------------------------------
# exact diagonal chain (standard sphere)
# ---------------------------------------------------------------------------


def build_chain_diagonal(basis_or_trunc) -> ParametrixChain:
    """Exact chain on eigentables; every residual is an exact Fraction."""
    n, N = basis_or_trunc.n, basis_or_trunc.N
    tr = Truncation(n, N)
    ident = DiagonalOperator.identity(n, N)
    P = critical_gjms(tr)
    S = szego(tr)
    Sb = szego_bar(tr)
    pi = pluriharmonic_proj(tr)

    G0 = ident
    for k in range(n + 1):
        # applied right to left: N_{-n} first
        G0 = G0.compose(l_mu(tr, n - 2 * k).partial_inverse(order_tag=-2))
    G0 = DiagonalOperator(n, N, G0.table, order_tag=-(2 * n + 2), label="G0")

    Pi0 = DiagonalOperator(n, N, (S + Sb).table, order_tag=0, label="Pi0")
    R0 = DiagonalOperator(n, N, (P.compose(G0) + Pi0 - ident).table, order_tag=-1, label="R0")

    # R_0 = S Sbar is idempotent in every truncation, so (I + R_0)^{-1} = I - R_0/2;
    # the report keeps recording both facts
    r0_idempotent = R0.compose(R0).equals(R0)
    A0 = DiagonalOperator(n, N, (ident - R0.scale(Fraction(1, 2))).table, order_tag=0, label="A0")

    PiInf = DiagonalOperator(n, N, Pi0.compose(A0).table, order_tag=0, label="PiInf")
    GInf = DiagonalOperator(
        n, N, (ident - PiInf).compose(G0).compose(A0).table, order_tag=-(2 * n + 2), label="GInf"
    )

    # the true partial inverse and kernel projection of the truncated operator
    G = DiagonalOperator(n, N, P.partial_inverse().table, order_tag=-(2 * n + 2), label="G")
    Pi = DiagonalOperator(
        n, N, {k: Fraction(0 if v else 1) for k, v in P.table.items()}, 0, "Pi"
    )

    diag = ChainDiagnostics("diagonal")
    SSb = S.compose(Sb)

    def rec(name, op):
        diag.record(f"{name}_sup", op.sup_norm())
        diag.record(f"{name}_rank", op.rank())

    rec("R0", R0)
    rec("R0_minus_SSbar", R0 - SSb)
    rec("A0_minus_closed_form", A0 - (ident - R0.scale(Fraction(1, 2))))
    rec("PG_plus_Pi_minus_I", P.compose(G) + Pi - ident)
    rec("GP_plus_Pi_minus_I", G.compose(P) + Pi - ident)
    rec("PGInf_plus_PiInf_minus_I", P.compose(GInf) + PiInf - ident)
    rec("R_inf", GInf.compose(P) + PiInf - ident)
    rec("PiInf_sq_minus_PiInf", PiInf.compose(PiInf) - PiInf)
    rec("Pi_minus_PiInf", Pi - PiInf)
    rec("G_minus_GInf", G - GInf)
    rec("Pi_minus_pluriharmonic", Pi - pi)
    rec("PiG", Pi.compose(G))
    rec("GPi", G.compose(Pi))
    rec("PPi", P.compose(Pi))
    rec("PiP", Pi.compose(P))
    rec("PiInf_minus_S_Sbar_combination", PiInf - (S + Sb - SSb))
    diag.record("Pi_self_adjoint", Pi.is_real)
    diag.record("A0_method", "closed_form")
    diag.record("R0_idempotent", r0_idempotent)

    members = {
        "P": P, "S": S, "Sbar": Sb, "pi": pi,
        "G0": G0, "Pi0": Pi0, "R0": R0, "A0": A0,
        "PiInf": PiInf, "GInf": GInf, "Pi": Pi, "G": G,
    }
    return ParametrixChain(n, N, "diagonal", members, diag)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass
class EigenCluster:
    value: float
    multiplicity: int
    blocks: list


# eigenvalues closer than this, relative to the larger, form one cluster
_CLUSTER_TOL = 1e-8


def cluster_eigenvalues(values, multiplicities, blocks=None):
    """Group sorted eigenvalues whose relative distance is at most _CLUSTER_TOL."""
    order = np.argsort(values)
    clusters = []
    for idx in order:
        v = float(values[idx])
        m = int(multiplicities[idx])
        b = blocks[idx] if blocks is not None else None
        if clusters:
            last = clusters[-1]
            scale = max(abs(v), abs(last.value), 1e-300)
            if abs(v - last.value) <= _CLUSTER_TOL * scale:
                last.multiplicity += m
                if b is not None:
                    last.blocks.append(b)
                continue
        clusters.append(EigenCluster(v, m, [b] if b is not None else []))
    return clusters


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    multiplicity_clusters: list
    kernel_dim: int
    eigenvectors: np.ndarray | None = None
    kernel_tol: float = 0.0


def spectrum_diagonal(D: DiagonalOperator) -> SpectrumResult:
    """Spectrum of a diagonal operator: eigentable values with block dims."""
    blocks = D.blocks()
    vals = np.array([float(D.table[b]) for b in blocks])
    mults = np.array([dim_hpq(D.n, p, q) for (p, q) in blocks])
    clusters = cluster_eigenvalues(vals, mults, blocks=list(blocks))
    kernel = sum(m for v, m in zip(vals, mults) if v == 0.0)
    flat = np.repeat(vals, mults)
    flat.sort()
    return SpectrumResult(flat, clusters, int(kernel))


def spectrum_matrix(P_diag_vec, weight: InnerProductWeight) -> SpectrumResult:
    """Generalized Hermitian eigenproblem P_d x = lambda W x.

    Returns real eigenvalues, W-orthonormal eigenvectors, and the numerical
    kernel dimension at an absolute tolerance of 1e-10, or 1e-13 of the
    largest eigenvalue if that is more.  The program reads the
    pencil's spectrum from spectrum_pencil; this dense route is the
    reference the tests hold it to.
    """
    D = len(P_diag_vec)
    # reduced to a standard eigenproblem by W = L L^T:
    # L^{-1} P_d L^{-T} y = lambda y, x = L^{-T} y
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(weight.matrix))
        evals, Y = np.linalg.eigh((L_inv * np.asarray(P_diag_vec, dtype=float)) @ L_inv.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"generalized eigensolver failed: {exc}") from exc
    evecs = L_inv.T @ Y
    tol = max(1e-10, 1e-13 * float(np.max(np.abs(evals), initial=0.0)))
    kernel = int(np.sum(np.abs(evals) <= tol))
    clusters = cluster_eigenvalues(evals, np.ones(D, dtype=int))
    return SpectrumResult(evals, clusters, kernel, evecs, tol)


def nonzero_eigenvalues(P_d, weight: InnerProductWeight, ker):
    """Ascending nonzero eigenvalues of the pencil P_d x = lambda W x, by one dense eigensolve.

    With K the kernel coordinates and C the rest, lambda != 0 forces
    x_K = -W_KK^{-1} W_KC x_C and leaves P_C x_C = lambda S x_C with the
    Schur complement S = W_CC - W_CK W_KK^{-1} W_KC.  P_C is positive, so
    the nonzero eigenvalues are 1/b for the eigenvalues b of
    P_C^{-1/2} S P_C^{-1/2}; the rest of the spectrum is |K| exact zeros.
    W_KK^{-1} W_KC are the C columns of the rows K of the W-orthogonal
    projector onto K (weight.projector_rows).  S is formed in place, its
    product term a block of rows at a time.  Returns an empty array when
    P_d has no nonzero entry.  The spectrum command writes every
    eigenvalue from here; the chain reports the smallest one with a
    certified enclosure and no eigensolver (low_eigenvalue_enclosure).
    """
    C = ~ker
    if not C.any():
        return np.zeros(0)
    W = weight.matrix
    S = W[np.ix_(C, C)]
    W_CK, Pi_KC = W[np.ix_(C, ker)], weight.projector_rows(ker)[:, C]
    for sl in row_slices(S.shape, _DENSE_BLOCK):
        S[sl] -= W_CK[sl] @ Pi_KC
    r = 1.0 / np.sqrt(P_d[C])
    S *= r[:, None]
    S *= r[None, :]
    b = np.linalg.eigvalsh(S)
    return 1.0 / b[::-1]


# the Ritz residual the block iteration of low_eigenvalue_enclosure stops at,
# relative to theta_1, the most iterations it takes and its guard columns
_RITZ_TOL = 1e-13
_RITZ_CAP = 100
_RITZ_GUARD = 8


def low_eigenvalue_enclosure(P_d, weight: InnerProductWeight, ker, pi_rows, n_pi, n_rs, n_wk):
    """The smallest nonzero eigenvalue mu_1 of P_d x = mu W x and a certified enclosure of it.

    As in nonzero_eigenvalues, the nonzero eigenvalues are mu_j = 1 / b_j
    for the eigenvalues b_1 >= b_2 >= ... of H = P_C^{-1/2} S P_C^{-1/2},
    S the Schur complement of W_KK; here neither S nor H is formed and no
    eigensolver of their order runs.  lambda_lb <= S <= W_ub (the weight's
    certified bounds hold for S), so by Ostrowski's theorem mu_j lies in
    [p_j / W_ub, p_j / lambda_lb], p_1 <= p_2 <= ... the entries of P_C,
    and b_{m+1} <= W_ub / p_{m+1}: at most m eigenvalues of H exceed it.

    A block of w = min(|C|, 2 g + _RITZ_GUARD) columns, g the multiplicity
    of p_1, runs subspace iteration with Rayleigh-Ritz on H, from the unit
    vectors of the w smallest p_j: H Y is the rows C of W (I - Pi) Y~, Y~
    the block P_C^{-1/2} Y padded with zeros on K and Pi the W-orthogonal
    projector onto K from its rows pi_rows, so each step is one pass of
    the powers of M on D x w (weight.apply).  The width depends on P
    alone, and there are at most _RITZ_CAP steps.  Y^T H Y is symmetric positive
    definite, so its singular value decomposition (of order w) is its
    eigendecomposition.  The cluster is the first m Ritz values, m the
    fewest with theta_m > W_ub / p_{m+1} (1 if there is none); the
    iteration stops once their residuals are _RITZ_TOL theta_1.

    Kahan's theorem (Parlett, The Symmetric Eigenvalue Problem, 11.5): for
    Q with m orthonormal columns and any symmetric B with eigenvalues
    theta_j, there are eigenvalues alpha_j of H, at distinct indices, with
    |alpha_j - theta_j| <= ||H Q - Q B||.  The Ritz block X (the cluster's
    m columns) is orthonormal only up to eps >= ||X^T X - I||; with
    Q = X (X^T X)^{-1/2} and B = Theta,

        ||H Q - Q Theta|| <= rho = ||H X - X Theta|| / sqrt(1 - eps)
                                   + 2 sqrt(1 + eps) theta_1 eps / (1 - eps).

    ||H X - X Theta|| is the measured residual plus the rounding of the
    pass (R |Y~| entrywise, weight.abs_taylor.rounding()), of the rows K of
    Y~ (n_pi >= ||pi_rows||) and of P_C^{-1/2} (gamma_{D+1} and gamma_3),
    plus the defect of pi_rows: H less the operator applied is
    P_C^{-1/2} W_CK W_KK^{-1} r_KC P_C^{-1/2}, r = W_K: - W_KK pi_rows, at
    most n_wk n_rs / (lambda_lb sqrt(min p)) with n_wk >= ||W_K:|| and
    n_rs >= ||r_KC P_C^{-1/2}||.  If theta_m - rho >
    W_ub / p_{m+1}, the alpha_j all exceed b_{m+1}, so they are b_1 .. b_m,
    b_1 lies within rho of theta_1 and mu_1 in [1 / (theta_1 + rho),
    1 / (theta_1 - rho)], intersected with Ostrowski's bracket.  Otherwise
    (the cluster is not isolated so, or did not converge) only
    b_1 >= alpha_1 >= theta_1 - rho is known, and mu_1 lies in
    [p_1 / W_ub, min(p_1 / lambda_lb, 1 / (theta_1 - rho))]: wider, never
    false.  Both are rounded outward.

    Returns 1 / theta_1, the enclosure [lo, hi] and the size m of the
    isolated cluster (0 when it is not isolated); (None, None, 0) when P_d
    has no nonzero entry.
    """
    C = ~ker
    if not C.any():
        return None, None, 0
    lam_lb, w_ub = weight.min_eigenvalue_bound, weight.max_eigenvalue_bound
    p = P_d[C]
    order = np.argsort(p, kind="stable")
    ps = p[order]
    width = min(ps.size, 2 * int(np.sum(ps == ps[0])) + _RITZ_GUARD)
    # above[m - 1] >= b_{m+1}, for the clusters of m = 1 .. width columns
    above = np.zeros(width)
    above[:ps.size - 1] = w_ub / ps[1:width + 1] * (1 + gamma(1))
    r = 1.0 / np.sqrt(p)

    def apply(Y):
        """H Y as computed, and the padded block Y~ (I - Pi) it applies W to."""
        Yt = np.zeros((Y.shape[1], ker.size)).T
        Yt[C] = Y * r[:, None]
        Yt[ker] = -(pi_rows @ Yt)
        HY = weight.apply(Yt)[C] * r[:, None]
        return HY, Yt

    def cluster(theta):
        """The fewest m whose Ritz values theta_1 .. theta_m exceed b_{m+1}, or 1."""
        isolated = np.flatnonzero(theta > above)
        return int(isolated[0]) + 1 if isolated.size else 1

    Y = np.zeros((p.size, width))
    Y[order[:width], np.arange(width)] = 1
    for _ in range(_RITZ_CAP):
        HY = apply(Y)[0]
        T = Y.T @ HY
        U, theta, _ = np.linalg.svd(0.5 * (T + T.T))
        X, HX = Y @ U, HY @ U
        m = cluster(theta)
        if np.linalg.norm(HX[:, :m] - X[:, :m] * theta[:m], axis=0).max() <= _RITZ_TOL * theta[0]:
            break
        Y = np.linalg.qr(HX)[0]

    X, theta = X[:, :m], theta[:m]
    HX, Yt = apply(X)
    R = HX - X * theta
    fro = _frobenius_upper
    n_x = fro(X)
    eps = fro(X.T @ X - np.eye(m)) + gamma(p.size + 2) * n_x**2
    r_max = float(r.max())
    rounding = weight.abs_taylor.rounding()
    n_apply = fro(np.array([rounding.abs_matvec(np.abs(y)) for y in Yt.T]))
    residual = (fro(R)
                + r_max * (n_apply + 2 * gamma(ker.size + 1) * n_wk * n_pi * fro(Yt[C]))
                + gamma(3) * (fro(HX) + fro(X * theta))
                + 2 * gamma(3) * w_ub * r_max**2 * n_x
                + r_max * n_wk * n_rs / lam_lb * n_x)
    theta_1 = float(theta[0])
    value = 1 / theta_1
    hi = ps[0] / lam_lb
    if eps < 1:
        rho = (residual / math.sqrt(1 - eps)
               + 2 * math.sqrt(1 + eps) * theta_1 * eps / (1 - eps))
        # the rounding of rho and of the bracket's arithmetic
        rho = rho * (1 + gamma(8)) + 4 * UNIT_ROUNDOFF * theta_1
        if float(theta[-1]) - rho > above[m - 1]:
            return value, _outward(max(1 / (theta_1 + rho), ps[0] / w_ub),
                                   min(1 / (theta_1 - rho), hi)), m
        if theta_1 > rho:
            hi = min(hi, 1 / (theta_1 - rho))
    return value, _outward(ps[0] / w_ub, hi), 0


def _frobenius_upper(X):
    """An upper bound on ||X||_F, and so on ||X||_2: the computed norm and its rounding."""
    return float(np.linalg.norm(X)) * (1 + gamma(X.size + 2))


def _outward(lo, hi):
    """[lo, hi] of positive floats widened by their rounding: a few units in the last place."""
    return [float(lo) * (1 - gamma(4)), float(hi) * (1 + gamma(4))]


def spectrum_pencil(basis: HarmonicBasis, weight: InnerProductWeight) -> SpectrumResult:
    """Spectrum of the pencil P_d x = lambda W x: the kernel coordinates K
    give |K| exact zeros, followed by nonzero_eigenvalues."""
    P_d = gjms_diag_vector(basis)
    ker = kernel_mask(basis)
    kernel = int(ker.sum())
    evals = np.concatenate([np.zeros(kernel), nonzero_eigenvalues(P_d, weight, ker)])
    clusters = cluster_eigenvalues(evals, np.ones(evals.size, dtype=int))
    return SpectrumResult(evals, clusters, kernel)


def min_nonzero_abs_eigenvalue(result: SpectrumResult):
    nz = np.abs(result.eigenvalues)[np.abs(result.eigenvalues) > result.kernel_tol]
    return float(nz.min()) if nz.size else None


# ---------------------------------------------------------------------------
# matrix chain (conformally perturbed sphere)
# ---------------------------------------------------------------------------


def kernel_mask(basis: HarmonicBasis):
    """Coordinates of Ker P, the pluriharmonic blocks p q = 0 (in every frame)."""
    return np.array([p * q == 0 for p, q, _, _ in basis.index_blocks()])


def interior_mask(basis: HarmonicBasis):
    """Blocks p + q <= N - 4, away from the truncation boundary."""
    return np.array([p + q <= basis.N - 4 for p, q, _, _ in basis.index_blocks()])


def pseudo_inverse_diag(P_d, ker):
    """P_d^+ as a vector: 1 / P_d off the kernel coordinates K, 0 on them."""
    return np.where(ker, 0.0, 1.0 / np.where(ker, 1.0, P_d))


# refinement steps of the kernel columns of W^-1 at most, two passes each, each
# shrinking the defect by ||T_K(M) T_K(-M) - I|| (n=1 N=8: 1e-8 at sup 1.0, 6e-3 at 1.7)
_REFINE_STEPS = 3


def hatted_gjms(basis: HarmonicBasis, weight: InnerProductWeight, W_cK):
    """The columns K of W and of W^{-1}, all P_hat = e^{-(n+1)Upsilon} P = W^{-1} P_d needs.

    By the critical-weight law P_hat = W^{-1} P_d, W = T_K(M), and P_d
    vanishes on K.  One pass of the powers M^j E_K gives W_:K = T_K(M) E_K,
    written to W_cK (E_K before the pass), and V_:K = T_K(-M) E_K, each
    within e = R E_K of the exact product, R = weight.abs_taylor.rounding(),
    n_e >= ||e||.
    W T_K(-M) = I + m(M) with ||m(M)|| <= mu (taylor_exp_mismatch), so
    F = W V_:K - E_K = m(M) E_K + W (V_:K - T_K(-M) E_K) and
    ||F|| <= n_f = mu + W_ub n_e.  Where mu is above that rounding term (a
    large perturbation), refinement steps V' = V - T_K(-M) F^ run,
    F^ = fl(T_K(M) V) - E_K, two passes each: W V' - E_K = (W V - E_K - F^)
    - m(M) F^ + W (the rounding of T_K(-M) F^ and of the subtraction), so
    n_f' = ||R |V||| + (u + mu) ||F^|| + W_ub (||R |F^||| + u ||V'||); each
    shrinks the defect by about ||m(M)||, and they stop at the rounding
    level, when a step no longer halves n_f, or after _REFINE_STEPS.
    ||W^{-1} E_K - V_:K|| = ||W^{-1} F|| <= n_f / lambda_lb.  A result that
    is not finite raises NumericalError.  Returns V_:K, n_f and n_e.
    """
    M, K = weight.multiplier, weight.taylor_depth
    ker = kernel_mask(basis)
    at = (np.flatnonzero(ker), np.arange(W_cK.shape[1]))  # the entries of E_K that are 1
    W_cK[...] = 0
    W_cK[at] = 1
    V_K = taylor_exp_apply(M, K, W_cK, negated=True, overwrite_x=True)[1]
    if not (np.isfinite(W_cK).all() and np.isfinite(V_K).all()):
        raise NumericalError("the kernel columns of W and W^-1 are not finite")
    R = weight.abs_taylor.rounding()
    n_e = norm2_upper_abs((R, Columns(ker)))
    mu = taylor_exp_mismatch(weight.multiplier_bound, K)
    w_ub = weight.max_eigenvalue_bound
    n_f = mu + w_ub * n_e
    for _ in range(_REFINE_STEPS):
        if n_f <= 2 * w_ub * n_e:  # at the rounding level of the pass
            break
        F = taylor_exp_apply(M, K, V_K)
        F[at] -= 1
        n_next = (norm2_upper_abs((R, V_K)) + (UNIT_ROUNDOFF + mu) * norm2_upper(F)
                  + w_ub * norm2_upper_abs((R, F)))
        V_K -= taylor_exp_apply(-M, K, F, overwrite_x=True)
        n_next += w_ub * UNIT_ROUNDOFF * norm2_upper(V_K)
        if not math.isfinite(n_next):
            raise NumericalError(f"the refined kernel columns of W^-1 are not finite ({n_next})")
        n_f, improved = n_next, n_next < 0.5 * n_f
        if not improved:
            break
    return V_K, n_f, n_e


def apply_partial_inverse(P_d, weight: InnerProductWeight, ker, X):
    """G X = (I - Pi) P_d^+ W (I - Pi) X, G the partial inverse of W^{-1} P_d.

    Pi is the W-orthogonal projector onto the kernel coordinates K; its
    nonzero rows are W_KK^{-1} W_K:, so Pi Y = E_K W_KK^{-1} (W Y)_K.  For a
    vector or a block X nothing of the size of W is formed:
    W (I - Pi) X = W X - W E_K z with z = W_KK^{-1} (W X)_K, every W by
    one pass (weight.apply) and the solves by conjugate gradients
    (weight.block_solve).  G is real (frame coordinates), and a complex X
    is applied as its real and imaginary parts.  The matrix chain keeps G
    as its factors (build_chain_matrix).
    """
    if np.iscomplexobj(X):
        return real_matmul(lambda Y: apply_partial_inverse(P_d, weight, ker, Y), X)
    p_inv = pseudo_inverse_diag(P_d, ker)
    Y = weight.apply(np.asarray(X, dtype=float))
    Z = np.zeros_like(Y)
    Z[ker] = weight.block_solve(ker, Y[ker])
    Y -= weight.apply(Z)
    Y *= p_inv.reshape((-1,) + (1,) * (Y.ndim - 1))
    Y[ker] -= weight.block_solve(ker, weight.apply(Y)[ker])
    return Y


def szego_rows(basis: HarmonicBasis, W_K):
    """The |K| x |K| complex C with S_K: = C W_K:, S the W-projector onto the holomorphic functions.

    The holomorphic coordinates H (q = 0) are, in the frame, the columns
    F = U^*[:, H] (RealFrame), whose nonzero rows lie in the kernel
    coordinates K.  S = F (F^* W F)^{-1} F^* W is complex, its rows outside
    K vanish, and its rows in K are C W_K: with C = V^* (V W_KK V^*)^{-1} V
    and V = U[H, K], read from the sparse U: no complex array of |K| x D is
    formed.  U is unitary and its rows H vanish outside K, so V has
    orthonormal rows and the weight's bounds bracket V W_KK V^*.  The antiholomorphic
    functions are the conjugates of the holomorphic ones and W is real, so
    Sbar = conj(S) and S + Sbar = 2 Re S = 2 Re(C) W_K:.
    """
    ker = kernel_mask(basis)
    holo = np.array([q == 0 for p, q, _, _ in basis.index_blocks()])
    U = RealFrame(basis).unitary()
    rows, cols = U.row_ids(), U.indices
    keep = holo[rows]
    V = np.zeros((int(holo.sum()), int(ker.sum())), dtype=complex)
    V[(np.cumsum(holo) - 1)[rows[keep]], (np.cumsum(ker) - 1)[cols[keep]]] = U.data[keep]
    return V.conj().T @ np.linalg.solve(V @ W_K[:, ker] @ V.conj().T, V)


def woodbury_a0(c_pi0, W_K, V_K, ker):
    """A_0 = (I + R_0)^{-1} as I - U Z, its |K|-row factors coefficients on Y = [W_K:; Pi_K:].

    P_d P^+ is the indicator of C = ~K, so P_hat G_0 = I - W^{-1} E_K W_K:; with
    V_:K for W^{-1} E_K and Pi0_K = c_pi0 W_K:, I + R_0 = I + U Vf, U = [E_K, -V_:K],
    Vf = [Pi0_K; W_K:], and A_0 = I - U Z with T Z = Vf, T = I_{2|K|} + Vf U
    (Woodbury).  With Q = Pi0_K V_:K and W_K: V_:K = I + F_KK (F the defect of V_:K),
    T = [[T_11, -Q], [W_KK, T_22]] = [[I + Pi0_KK, -Q], [W_KK, -F_KK]]; F_KK vanishes
    up to rounding, so Z_1 = Pi_K:, and Q Z_2 = T_11 Pi_K: - Pi0_K gives Z_2 = C_Z2 Y,
    C_Z2 = Q^{-1} [-c_pi0, T_11] (_woodbury_z2).  T comes from W_K: V_:K,
    c_pi0 (W_K: V_:K) and c_pi0 W_KK (blocked_matmul, of orders t, o and o).

    F' = Vf - T Z is Res_1 Y on its first block row, Res_1 = Q C_Z2 - [-c_pi0, T_11]
    (so Pi_0 A_0 = Pi_K: + Res_1 Y), and r - T_22 C_Z2 Y, r = W_K: - W_KK Pi_K:, on
    its second; fl(Res_1) is within gamma_o |Q| |C_Z2| + u |Res_1| (a difference rounds
    relative to itself).  (I + U Vf)(I - U Z) - I = U (Vf - T_x Z), T_x = I + Vf U
    exactly, and T - T_x is within gamma_o |c_pi0| |W_KK| + u |T_11| on the block
    column meeting Pi_K:, gamma_o |c_pi0| |fl(W_K: V_:K)| + gamma_{t+1} (|[c_pi0; I]|
    |W_K:| |V_:K| + |T_22|) on the one meeting Z_2.  Returns C_Z2, Res_1,
    solve_term(n_y, n_pi, n_z2, n_r) >= ||U (Vf - T_x Z)|| for n_y >= ||Y||,
    n_pi >= ||Pi_K:||, n_z2 >= ||Z_2|| and n_r >= ||r||, and a bound on ||W_K: V_:K||.
    """
    a, k = norm2_upper_abs, len(c_pi0)
    WV, t = blocked_matmul(W_K, V_K)
    Q, o = blocked_matmul(c_pi0, WV)
    a_wv, t_q = a((W_K, V_K)), gamma(o) * a((c_pi0, WV))
    T_22 = np.negative(WV, out=WV)
    T_22.flat[:: k + 1] += 1
    n_22 = norm2_upper(T_22)
    t_2 = t_q + gamma(t + 1) * (a((c_pi0, W_K, V_K)) + a_wv + n_22)
    W_KK = W_K[:, ker]
    T_11 = blocked_matmul(c_pi0, W_KK)[0]
    T_11.flat[:: k + 1] += 1
    t_1 = gamma(o) * a((c_pi0, W_KK)) + gamma(1) * norm2_upper(T_11)
    C_z2 = _woodbury_z2(Q, T_11, c_pi0)
    res_1 = blocked_matmul(Q, C_z2)[0]
    res_1[:, :k] += c_pi0
    res_1[:, k:] -= T_11
    res = (math.hypot(norm2_upper(res_1), norm2_upper(blocked_matmul(T_22, C_z2)[0]))
           * (1 + gamma(1)) + gamma(o) * (a((Q, C_z2)) + a((T_22, C_z2))))
    n_u = math.sqrt(1 + norm2_upper(V_K) ** 2)  # >= ||U||

    def solve_term(n_y, n_pi, n_z2, n_r):
        return n_u * (res * n_y + n_r + t_1 * n_pi + t_2 * n_z2)

    return C_z2, res_1, solve_term, 1 + n_22 + gamma(t) * a_wv


def _woodbury_z2(Q, T_11, c_pi0):
    """C_Z2 = [-A_2 c_pi0, A_1] = Q^{-1} [-c_pi0, T_11] of woodbury_a0: one |K| x |K| solve."""
    try:
        return np.linalg.solve(Q, np.concatenate([-c_pi0, T_11], axis=1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Woodbury block of A0 singular: {exc}") from exc


def scaling_defect(P_d, p_plus):
    """max |p g - 1| over the nonzero p of P_d and the matching entries g of p_plus, exactly.

    The chain scales by P_d and by its float inverse P_d^+; each p g is
    1 + c with |c| at most this.
    """
    nz = P_d != 0
    pairs = set(zip(P_d[nz].tolist(), p_plus[nz].tolist()))
    return float(max((abs(Fraction(p) * Fraction(g) - 1) for p, g in pairs), default=0))


class _TimesHat:
    """Bounds on ||X P_hat|| for P_hat = W^{-1} P_d, which is never formed.

    W^{-1} P_d = P_d W^{-1} + W^{-1} C W^{-1} with C = [P_d, W], and
    W^{-1} C = C + (W^{-1} - I) C, so ||X P_hat|| <= (||X P_d|| +
    (1 + omega) ||X|| ||C||) / lambda_lb with omega = max(1/lambda_lb - 1,
    1 - 1/W_ub) >= ||W^{-1} - I||.  C is not formed: [P_d, M^k] =
    sum_l M^l [P_d, M] M^{k-1-l}, so ||C|| <= sum_k k a^(k-1) / k! ||[P_d, M]||
    <= e^a ||[P_d, M]|| (a >= ||M||), and [P_d, M] is sparse, its entries
    (P_i - P_j) M_ij within gamma_2 of exact.
    """

    def __init__(self, weight, P_d):
        M = weight.multiplier
        comm = abs(M)
        comm.data *= np.abs(P_d[M.row_ids()] - P_d[M.indices])
        self.n_comm = math.exp(weight.multiplier_bound) * (1 + gamma(4)) * norm2_upper(comm)
        self.lam = weight.min_eigenvalue_bound
        self.omega = max(1 / self.lam - 1, 1 - 1 / weight.max_eigenvalue_bound)

    def __call__(self, x_pd, x):
        """>= ||X P_hat|| from x_pd >= ||X P_d|| and x >= ||X||."""
        return (x_pd + (1 + self.omega) * x * self.n_comm) / self.lam


def _gram_rows(F, mask):
    """F_M^T F_M, F_M the rows in mask of a D x m array F, a block of D/8 rows at a time."""
    G = np.zeros((F.shape[1], F.shape[1]))
    for sl in eighth_blocks(F.shape[0]):
        B = F[sl][mask[sl]]
        G += B.T @ B
    return G


# squarings of the Gram product for the reported norms of R_0, one product of
# order |K| each: 0 .. 3 give 1.037, 1.019, 1.010, 1.0056 at n=1 N=12, ||U Vf|| = 1.0012
_GRAM_SQUARINGS = 3


def _product_norm_upper(M, f_x, f_y, depth, squarings=0):
    """An upper bound on ||X Y||_2 from M = (X^T X)(Y Y^T) as computed, no eigensolver.

    ||X Y||^2 = rho(X^T X Y Y^T) (AB and BA share their nonzero
    eigenvalues), at most norm2_upper of the 2^s-th power, formed by s
    squarings of M in place (Gelfand's formula), plus its rounding.  With
    f_x >= ||X||_F^2, f_y >= ||Y||_F^2 and each Gram a sum of at most depth
    products, a computed Gram is within gamma_depth f of the exact one
    (|| |X|^T |X| || <= ||X||_F^2), so M, a product of order m, is within
    e_0 = gamma_{2 depth + m} f_x f_y of the exact one, and its square
    within e_1 = e_0 (2 n_0 + e_0) + gamma_m n_0^2 of the exact square,
    n_0 >= ||M||.
    """
    m = M.shape[0]
    err = gamma(2 * depth + m) * f_x * f_y
    spare = np.empty_like(M) if squarings else None
    for _ in range(squarings):
        n_m = norm2_upper(M) * (1 + gamma(m + 2))
        np.matmul(M, M, out=spare)
        M, spare = spare, M
        err = err * (2 * n_m + err) + gamma(m) * n_m**2
    power = norm2_upper(M) * (1 + gamma(m + 2)) + err
    return power ** (0.5 ** (squarings + 1)) * (1 + gamma(2))


def _r0_norms(V_K, c_pi0, G, G_int, f_w, ker, interior):
    """Upper bounds on ||U Vf|| (R_0), also on the interior rows and columns, from Grams
    of order |K| (_product_norm_upper): U Vf = X W_K:, X = U [c; I] = E_K c - V_:K, with
    X^T X = c^T c - c^T V_KK - V_KK^T c + V_:K^T V_:K within gamma_{D+3} |X|^T |X|, of
    norm <= (||U||_F (||c|| + 1))^2, and G, G_int the Grams of W_K: and of its interior
    columns (f_w >= ||W_K:||_F^2); the interior rows of X drop the rows K outside them."""
    D, k = V_K.shape
    V_KK = V_K[ker]
    f_x = (k + _frobenius_upper(V_K) ** 2) * (norm2_upper(c_pi0) + 1) ** 2
    out = []
    for d, G_ in ((np.ones(k), G), (interior[ker].astype(float), G_int)):
        XX = _gram_rows(V_K, interior) if G_ is G_int else V_K.T @ V_K
        t = c_pi0.T @ (d[:, None] * V_KK)
        XX -= t
        XX -= t.T
        XX += c_pi0.T @ (d[:, None] * c_pi0)
        out.append(_product_norm_upper(XX @ G_, f_x, f_w, D + 3, _GRAM_SQUARINGS))
    return out


def _sweep(k, D, blocks_of, count, right, left):
    """One pass over the columns D a block at a time (64 columns, or 0.5 MB): blocks_of(sl)
    yields the blocks sl of the count members X of |K| rows, formed from their factors one
    at a time, each summed to |X| right and left^T |X| (nonnegative weights as columns)."""
    sums = [(np.zeros((k, right.shape[1])), np.empty((left.shape[1], D))) for _ in range(count)]
    for sl in row_slices((D, k), min(64 * k, _DENSE_BLOCK)):
        for (rows, cols), X in zip(sums, blocks_of(sl)):
            np.abs(X, out=X)
            rows += X @ right[sl]
            cols[:, sl] = left.T @ X
    return sums


def _g_column_norm(apply_w, Pi_K, p, ker, P_d):
    """The largest computed ||G e_j|| over the columns j of the smallest nonzero P_d, where
    G is largest, G e_j = (I - Pi) P^+ W (I - Pi) e_j: one product of W (apply_w) with them;
    and the largest ||(I - Pi) e_j|| of them, rounded up."""
    C = ~ker
    J = np.flatnonzero(C & (P_d == P_d[C].min(initial=np.inf)))
    X = np.zeros((ker.size, J.size))
    X[J, np.arange(J.size)] = 1
    X[ker] = -Pi_K[:, J]
    Y = apply_w(X)
    Y *= p[:, None]
    Y[ker] = -(Pi_K @ Y)
    x_max = float(np.linalg.norm(X, axis=0).max(initial=0.0)) * (1 + gamma(ker.size + 2))
    return float(np.linalg.norm(Y, axis=0).max(initial=0.0)), x_max


def build_chain_matrix(basis: HarmonicBasis, weight: InnerProductWeight) -> ParametrixChain:
    """Parametrix chain with matrix arithmetic on the truncated basis, without a D x D array.

    W = T_K(M) is the exact Taylor sum of the stored multiplier and
    P_hat = W^{-1} P_d its exact operator; neither is formed.  One pass of
    the powers of M (taylor_exp_apply) gives the columns K of W (stored as
    the rows W_K:, within e = fl(W_:K) - W_:K, ||e|| <= n_e) and V_:K, which
    stands in for W^{-1} E_K (hatted_gjms: ||F|| <= n_f, F = W V_:K - E_K).
    A_0 = (I + R_0)^{-1} comes from the Woodbury identity on I + R_0 = I + U Vf
    of rank 2|K| (woodbury_a0); the Neumann series would not do: the
    W-adjoint Pi_0 - I_K of R_0 fixes the constant function.  Pi is the
    W-orthogonal projector onto K, Pi_K: = W_KK^{-1} W_K:, and the smallest
    nonzero eigenvalue of the pencil comes with a certified enclosure from a
    block iteration (low_eigenvalue_enclosure).

    The members are diagonals, the exact W, the |K| x D arrays W_K:, Pi_K:
    and V_:K, and coefficients on Y = [W_K:; Pi_K:], each member exactly the
    product of its stored factors (tests/chain_members.py expands them):
    Pi0_K = c_pi0 W_K: and Im S_K: = S_imag W_K: (szego_rows), Z_2 and
    PiInf_K: as |K| x 2|K| coefficients on Y, G0 = P^+ W (the table of
    N_n ... N_{-n} is P^+), R0 = U Vf, A0 = I - U Z (Z = [Pi_K:; Z_2]),
    G = (I - Pi) P^+ B' with B' = W - fl(W_:K) Pi_K:, and
    G_oo = (I - Pi_oo) G_0 A_0.  The working set is the pass (W_:K, V_:K and
    two powers of M on them), then W_K:, V_:K and Pi_K: with arrays of order
    |K|, the low eigenvalue's passes on D x w blocks, and one sweep over
    blocks of columns (_sweep) forming each block of r, Z_2, Pi_K: - PiInf_K:
    and Pi_oo^2 - Pi_oo once for its norms.

    The identities are not formed.  With d = W^{-1} E_K - V_:K = -W^{-1} F,
    r = W_K: - W_KK Pi_K: for the exact W (r^ - e^T + e^T E_K Pi_K:, r^ from
    the stored rows), F' = Vf - T Z (the Woodbury solve), c = P_d P^+ - 1_C
    (at most u per entry, scaling_defect), B = W - W_:K Pi_K: (rows K: r,
    W^{-1} B = I - Pi) and e_G = G - (I - Pi) P^+ B = -(I - Pi) P^+ e Pi_K:,

        R_0 = U Vf - d W_K: + (V_:K + d) e^T + W^{-1} (P_d G_0 - 1_C W)
        (I + R_0) A_0 - I = U (Vf - T Z) + (R_0 - U Vf) A_0
        P_hat G + Pi - I = -(V_:K + d) r + W^{-1} (c B + P_d e_G)
        G P_hat + Pi - I = -E_K W_KK^{-1} r_KK E_K^T
                           + (I - Pi) (c + P^+ W_:K W_KK^{-1} r P_hat) + e_G P_hat
        P_hat G_oo + Pi_oo - I = P_hat G + Pi - I + W^{-1} P_d (G_oo - G) + (Pi_oo - Pi)
        R_oo = G_oo P_hat + Pi_oo - I = G P_hat + Pi - I + (G_oo - G) P_hat + (Pi_oo - Pi)
        W Pi - Pi^T W = r^T Pi_K: - Pi_K:^T r,  W G - (W G)^T from it
        Pi G = (I - Pi_KK) Pi_K: P^+ B'
        G_oo - G = P^+ F Z_2 + P^+ e Pi_K: on the rows C,
                   -(PiInf_K: - Pi_K:) G_C - PiInf_K: (G_oo - G)_C on the rows K

    G_oo - G and Pi_oo - Pi hold only rounding; Pi_oo - Pi and Pi_oo^2 - Pi_oo
    are measured on the swept blocks ("dense"), charged the rounding of the
    blocks (gamma_{k+1} |C| [|W_K:|; |Pi_K:|] for a coefficient C).  X P_hat
    is bounded without P_hat (_TimesHat).  W P_hat - (W P_hat)^T, Pi^T W P_hat,
    Pi_oo^T W P_hat and P_hat Pi vanish for the exact P_hat (W P_hat = P_d,
    zero on K): 0.0 ("structural").  Norms that read W take |W| <= T_K(|M|)
    and the pass's rounding R (weight.abs_taylor) into norm2_upper_abs;
    h = P^+ W^ (I + E_K |Pi_K:|), W^ = T_K(|M|) + R, bounds |P^+ B| and
    |P^+ B'|.  ||U Vf|| comes from Grams of order |K| (_r0_norms),
    ||U Z|| <= ||Pi_K:|| + ||V_:K|| ||Z_2||, the lower norm of G from its
    largest column at the smallest nonzero P_d (one pass), and
    ||G_oo|| >= ||G|| - ||G_oo - G||.  Every bound ("factored") is a certified
    upper bound on the spectral norm of the identity on the exact members;
    its interior entry repeats the full bound, but R0_interior.  Pi_oo and
    G_oo add (1 + kappa) ||Pi - Pi_oo||, (1 + kappa) ||G - G_oo||,
    kappa = W_ub / lambda_lb, to the defects of Pi and G.
    inverse_defect_bound bounds ||d||.  Members are float64 (RealFrame).
    """
    n, N, D = basis.n, basis.N, basis.total_dim
    interior, ker = interior_mask(basis), kernel_mask(basis)
    k, E_K = int(ker.sum()), Columns(ker)

    P_d = gjms_diag_vector(basis)
    p = pseudo_inverse_diag(P_d, ker)
    # c_max >= |P_d P^+ - 1_C| entrywise, and eta >= |x - 1| for x = p g (1 + d),
    # |d| <= u: the member G_0 = P^+ W, rounded, scaled by P_d
    c_max = scaling_defect(P_d, p)
    eta = c_max + gamma(2)
    lam_lb, w_ub = weight.min_eigenvalue_bound, weight.max_eigenvalue_bound
    abs_w = weight.abs_taylor  # >= |W|
    R = abs_w.rounding()  # >= the rounding of a pass, on |X|
    w_hat = abs_w.scaled(1 + R.c0, R.c1)  # >= |W| and |fl(W X)| on |X|
    a = norm2_upper_abs

    # W_K: by the pass (W_:K is symmetric to it); what needs no Pi_K: runs before it
    W_K = np.empty((k, D))
    V_K, n_f, n_e = hatted_gjms(basis, weight, W_K.T)
    e_v, n_w, n_vk = n_f / lam_lb, norm2_upper(W_K), norm2_upper(V_K)
    C_S = szego_rows(basis, W_K)
    c_pi0, S_imag = 2 * C_S.real, np.ascontiguousarray(C_S.imag)  # Pi0_K = 2 Re S_K:
    del C_S
    C_z2, C_d, solve_term, n_wv = woodbury_a0(c_pi0, W_K, V_K, ker)
    # Pi_oo = Pi_0 A_0 is C_inf Y on its rows K, C_inf = fl([0, I] + Res_1), and
    # Pi_K: - PiInf_K: = C_d Y with C_d = [0, I] - C_inf exactly (1 - fl(1 + x) by Sterbenz)
    diag_2 = (np.arange(k), k + np.arange(k))
    C_d[diag_2] += 1
    np.negative(C_d, out=C_d)
    C_d[diag_2] += 1
    n_uvf, n_uvf_int = _r0_norms(V_K, c_pi0, W_K @ W_K.T, _gram_rows(W_K.T, interior),
                                 _frobenius_upper(W_K) ** 2, ker, interior)
    Pi_K = weight.projector_rows(ker, W_K)
    n_pi, W_KK = norm2_upper(Pi_K), W_K[:, ker]

    # Pi_oo^2 - Pi_oo = X PiInf_K: with X = PiInf_KK - I = (Pi_KK - I) - C_d [W_KK; Pi_KK],
    # within gamma_{k+2} (|Pi_KK - I| + |X| + |C_d| [|W_KK|; |Pi_KK|]) of the computed one
    P_1 = Pi_K[:, ker]
    X = C_d[:, :k] @ W_KK
    X += C_d[:, k:] @ P_1
    e_x = a((C_d[:, :k], W_KK), (C_d[:, k:], P_1))
    P_1.flat[:: k + 1] -= 1
    X = np.subtract(P_1, X, out=X)
    e_x, n_p1, n_x = gamma(k + 2) * (e_x + a((P_1,), (X,))), norm2_upper(P_1), norm2_upper(X)
    del P_1
    # one sweep forms r^ = W_K: - W_KK Pi_K: (W_KK Pi_K: blocked, of order o), Z_2, X PiInf_K:
    # and Pi_K: - PiInf_K:, weighted by 1, P_d, P^{+1/2} and the interior columns
    in_k, o = interior[ker], blocked_matmul(W_KK[:0], W_KK)[1]
    right = np.stack([np.ones(D), P_d, np.sqrt(p), interior], axis=1)
    r_rounding = [gamma(o + 1) * a((W_K, s), (W_KK, Pi_K, s)) for s in right.T[:3]]

    def blocks_of(sl):
        W_b, Pi_b = W_K[:, sl], Pi_K[:, sl]
        yield W_b - blocked_matmul(W_KK, Pi_b)[0]
        yield C_z2[:, :k] @ W_b + C_z2[:, k:] @ Pi_b
        d_b = C_d[:, :k] @ W_b + C_d[:, k:] @ Pi_b
        yield X @ (Pi_b - d_b)
        yield d_b

    r_sums, z_sums, sq_sums, d_sums = _sweep(k, D, blocks_of, 4, right,
                                             np.stack([np.ones(k), in_k], axis=1))
    del W_KK, X

    def formed(s, j=0, inner=False):  # norm2_upper of |X| diag(right[:, j]), or of its interior
        rows, cols = ((s[0][in_k, 3], s[1][1][interior]) if inner
                      else (s[0][:, j], s[1][0] * right[:, j]))
        return math.sqrt(float(rows.max(initial=0.0)) * float(cols.max(initial=0.0)))

    # r for the exact W is the defect of Pi_K:, from the stored rows r^ - e^T + e^T E_K Pi_K:;
    # n_rhat[j] >= ||r^ diag(s)||, n_r, n_rp, n_rs >= ||r diag(s)||, s = right[:, j]
    n_rhat = [formed(r_sums, j) + r_rounding[j] for j in range(3)]
    n_r, n_rp, n_rs = (n_rhat[j] + a((s, R, E_K)) + n_e * a((Pi_K, s))
                       for j, s in enumerate(right.T[:3]))
    n_rs *= 1 + gamma(3)  # >= ||r_KC P_C^{-1/2}||
    n_d = a((C_d[:, :k], W_K), (C_d[:, k:], Pi_K))  # >= ||C_d| Y|, and |PiInf_K:| <= |Pi_K:| + it
    n_z2 = [formed(z_sums, j) + gamma(k + 1) * a((C_z2[:, :k], W_K, s), (C_z2[:, k:], Pi_K, s))
            for j, s in enumerate(right.T[:2])]  # >= ||Z_2||, ||Z_2 P_d||
    C_inf = np.negative(C_d, out=C_d)  # [0, I] - C_d, exactly
    C_inf[diag_2] += 1
    lam_min, lam_enclosure, group = low_eigenvalue_enclosure(  # n_wk >= ||W_K:||
        P_d, weight, ker, Pi_K, n_pi, n_rs, n_wk=n_w + n_e)

    diag = ChainDiagnostics("matrix")
    for name, value in (("A0_method", "woodbury"), ("kernel_dim", k),
                        ("min_nonzero_abs_eigenvalue", lam_min),
                        ("min_nonzero_abs_eigenvalue_enclosure", lam_enclosure),
                        ("min_nonzero_abs_eigenvalue_group_size", group),
                        ("weight_min_eigenvalue_bound", lam_lb), ("inverse_defect_bound", e_v)):
        diag.record(name, value)

    def rec(name, s, rounding):  # a swept residual, and the rounding of its blocks
        diag.record(f"{name}_full", formed(s) + rounding, "dense")
        diag.record(f"{name}_interior", formed(s, inner=True) + rounding, "dense")

    def bound(name, full, inner=None):
        diag.record(f"{name}_full", full, "factored")
        diag.record(f"{name}_interior", full if inner is None else inner, "factored")

    # zero for the exact P_hat: P_hat Pi, W P_hat - (W P_hat)^T, and Ran P_hat is orthogonal
    # to Ran Pi and Ran Pi_oo in the weighted inner product
    for name in ("PPi_full", "PPi_interior", "P_hat_adjoint_defect", "ran_orthogonality_defect",
                 "ran_orthogonality_defect_PiInf"):
        diag.record(name, 0.0, "structural")

    diff = 1 + gamma(1)  # a computed difference against the exact one
    rec("Pi_minus_PiInf", d_sums, gamma(k + 1) * n_d)
    pi_diff = diff * diag.entries["Pi_minus_PiInf_full"]
    n_piinf = n_pi + pi_diff  # >= ||Pi_oo||
    # fl(PiInf_K:) = fl(Pi_K: - fl(C_d Y)) is within gamma_{k+1} |C_d| |Y| + u |fl(PiInf_K:)|,
    # |fl(PiInf_K:)| <= |Pi_K:| + 2 |C_d| |Y|, and X times it within gamma_k of |X| |fl(PiInf_K:)|
    rec("PiInf_sq_minus_PiInf", sq_sums, e_x * n_piinf + gamma(k + 1) * n_x * (n_pi + 3 * n_d))

    # R_0 and A_0: R_0 - U Vf = -d W_K: + (V_:K + d) e^T + W^{-1} c W, so ||R_0 - U Vf|| <=
    # ||d|| ||W_K:|| + ||W^{-1} E_K|| ||e|| + eta ||W|| / lambda_lb; W_K: A_0 = r^ + W_K: V_:K Z_2,
    # and ||A_0|| <= 1 + ||Pi_K:|| + ||V_:K|| ||Z_2||
    e_r0 = (n_vk + e_v) * n_e + eta * w_ub / lam_lb
    bound("R0", n_uvf + e_r0 + e_v * n_w, n_uvf_int + e_r0 + e_v * n_w)
    diag.record("A0_residual", solve_term(math.hypot(n_w, n_pi), n_pi, n_z2[0], n_rhat[0])
                + e_v * (n_rhat[0] + n_wv * n_z2[0]) + e_r0 * (1 + n_pi + n_vk * n_z2[0]),
                "factored")

    # ||L X (I + E_K |Pi_K:|) R|| for an operator X (T_K(|M|), W^ or R) and diagonals L, R;
    # h = P^+ W^ (I + E_K |Pi_K:|) bounds |P^+ B| and |P^+ B'|
    def wide(X, *right, left=()):
        return a((*left, X, *right), (*left, X, E_K, Pi_K, *right))

    n_h, n_hp = wide(w_hat, left=(p,)), wide(w_hat, P_d, left=(p,))  # >= ||h||, ||h P_d||
    # e_G = -(I - Pi) P^+ e Pi_K:, |P^+ e Pi_K:| <= P^+ R E_K |Pi_K:|
    n_pe = a((p, R, E_K, Pi_K))
    n_eg = (1 + n_pi) * n_pe  # >= ||e_G||
    n_egp = (1 + n_pi) * a((p, R, E_K, Pi_K, P_d))  # >= ||e_G P_d||
    # Pi G = Pi_K: (I - Pi) P^+ B' = (I - Pi_KK) Pi_K: P^+ B', I - Pi_KK formed exactly
    bound("PiG", diff * n_p1 * n_pi * n_h)

    # P_hat G + Pi - I: |B| <= |W| (I + E_K |Pi_K:|), and P_d e_G = -(1_C + c) e Pi_K:
    b_pg = ((n_vk + e_v) * n_r + (c_max * wide(abs_w) + (1 + c_max) * a((R, E_K, Pi_K))) / lam_lb)
    bound("PG_plus_Pi_minus_I", b_pg)

    # G P_hat + Pi - I, with ||W_KK^{-1} r P_hat|| <= n_rh and ||P^+ W_:K|| <= n_pw
    times_hat = _TimesHat(weight, P_d)
    n_rh = times_hat(n_rp, n_r) / lam_lb
    n_pw = a((p, W_K.T), (p, R, E_K))
    b_gp = n_r / lam_lb + (1 + n_pi) * (c_max + n_pw * n_rh) + times_hat(n_egp, n_eg)
    bound("GP_plus_Pi_minus_I", b_gp)

    # G_oo - G from the factors: on the rows C, P^+ W A_0 - P^+ B' =
    # P^+ F Z_2 + P^+ e Pi_K: with ||F|| <= n_f (P^+ E_K = 0);
    # on the rows K, -PiInf_K: (G_0 A_0) + Pi_K: P^+ B' =
    # -(PiInf_K: - Pi_K:) G_C - PiInf_K: (G_oo - G)_C
    def goo_minus_g(h_r, right=(), left=()):
        """>= ||L (G_oo - G) R|| for the members, L = left and R = right diagonals (P_d), from
        h_r >= ||L h R||; left = (P_d,) drops the rows K, where P_d vanishes."""
        g_max = float(np.max(p * left[0] if left else p)) * diff
        pe = a((*left, p, R, E_K, Pi_K, *right)) if left or right else n_pe
        rows_c = g_max * n_f * n_z2[len(right)] + pe
        if left:
            return rows_c
        return rows_c + pi_diff * h_r + n_piinf * rows_c

    n_diff = goo_minus_g(n_h)
    bound("G_minus_GInf", n_diff)
    n_pdiff = goo_minus_g(0.0, left=(P_d,))
    bound("PGInf_plus_PiInf_minus_I", b_pg + pi_diff + n_pdiff / lam_lb)
    bound("R_inf", b_gp + pi_diff + times_hat(goo_minus_g(n_hp, (P_d,)), n_diff))

    # lower norms: the computed columns of G less their rounding (the pass,
    # then the scaling and the rows K) and the member's e_G;
    # ||G_oo|| >= ||G|| - ||G_oo - G||
    column, x_max = _g_column_norm(weight.apply, Pi_K, p, ker, P_d)
    lower_g = max(column * (1 - gamma(D + 2)) - n_eg - (1 + n_pi) * (
        float(p.max(initial=0.0)) * weight.apply_rounding_bound * x_max + gamma(D + 2) * n_h),
        0.0)
    lower_ginf = max(lower_g - n_diff, 0.0)

    # weighted adjointness defects ||X - W^{-1} X^T W|| / ||X|| <= ||W X - (W X)^T|| / (lambda_lb ||X||)
    kappa = w_ub / lam_lb
    n_delta = 2 * n_pi * n_r  # >= ||W Pi - Pi^T W||
    # W G - (W G)^T = -Delta P^+ B - B^T P^+ Delta for the exact G, B = W (I - Pi),
    # with ||P^+ B|| <= n_h, plus W e_G - (W e_G)^T for e_G
    g_skew = 2 * n_delta * n_h + 2 * w_ub * n_eg
    for name, value in (
        ("G", _ratio(g_skew, lam_lb * lower_g)),
        ("Pi", _ratio(n_delta, lam_lb * norm2_lower(Pi_K))),
        ("PiInf", _ratio(n_delta / lam_lb + (1 + kappa) * pi_diff,
                         max(norm2_lower(Pi_K) - pi_diff, 0.0))),
        ("GInf", _ratio(g_skew / lam_lb + (1 + kappa) * n_diff, lower_ginf)),
    ):
        diag.record(f"{name}_adjoint_defect", value, "factored")

    members = {"S_imag": S_imag, "P_diag": P_d, "P_plus": p, "V_K": V_K, "W_K": W_K,
               "Pi": Pi_K, "Pi0": c_pi0, "Z2": C_z2, "PiInf": C_inf}
    return ParametrixChain(n, N, "matrix", members, diag, weight=weight, basis=basis)


def _ratio(num, den):
    """num / den; 0 for a zero member (num = den = 0), and inf where a nonzero
    num meets a lower norm that certifies nothing (den = 0)."""
    if den > 0:
        return num / den
    return 0.0 if num == 0 else math.inf


# ---------------------------------------------------------------------------
# smoothing residual report
# ---------------------------------------------------------------------------


def smoothing_residual(chain: ParametrixChain):
    """Rank and size of R_inf = G_oo P + Pi_oo - I and of Pi - Pi_oo."""
    d = chain.diagnostics.entries
    if chain.mode == "diagonal":
        return {
            "mode": "diagonal",
            "R_inf_rank": d["R_inf_rank"],
            "R_inf_sup": str(d["R_inf_sup"]),
            "Pi_minus_PiInf_rank": d["Pi_minus_PiInf_rank"],
            "Pi_minus_PiInf_sup": str(d["Pi_minus_PiInf_sup"]),
            "R0_rank": d["R0_rank"],
        }
    return {
        "mode": "matrix",
        "R_inf_norm_full": d["R_inf_full"],
        "R_inf_norm_interior": d["R_inf_interior"],
        "Pi_minus_PiInf_norm_full": d["Pi_minus_PiInf_full"],
        "Pi_minus_PiInf_norm_interior": d["Pi_minus_PiInf_interior"],
    }
