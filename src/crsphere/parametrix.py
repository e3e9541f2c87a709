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
(hatted_gjms), and every other member is a diagonal or factors with at
most 2|K| rows or columns (S, Sbar, Pi_0, Pi_oo and Pi are nonzero only on
their rows in K, where the holomorphic and antiholomorphic coordinates
pair up).  Every chain identity is recorded as a norm on the full
truncation and on the interior blocks, with its route: certified bounds
derived from the chain's factors and their a-priori defects, the cheap
differences formed and measured, and the identities the algebra makes
exactly zero recorded as zero.

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
    norm2_upper_blocks,
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
    P_d = critical_gjms(basis).to_diag_vector(basis)
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


def woodbury_a0(Vf, Pi_K, V_K, ker):
    """A_0 = (I + R_0)^{-1} as I - U Z, with Vf = [Pi_0[K]; W_K:], Pi_K = Pi_K: and V_K = V_:K.

    P_d P^+ is the indicator of C = ~K, so P_hat G_0 = W^{-1} P_d P^+ W =
    I - W^{-1} E_K W_K:, and Pi_0 = E_K Pi0_K.  With V_:K for W^{-1} E_K,
    I + R_0 = I + U Vf with U = [E_K, -V_:K] and Vf = [Pi0_K; W_K:], and by
    the Woodbury identity A_0 = I - U Z with T Z = Vf, T = I_{2|K|} + Vf U.
    With Q = Pi0_K V_:K and W_K: V_:K = I + F_KK (F the defect of V_:K),

        T = [[I + Pi0_KK, -Q], [W_KK, -F_KK]],

    and F_KK vanishes up to rounding, so the second block row makes
    Z_1 = W_KK^{-1} W_K: = Pi_K:, already solved, and the first gives Z_2
    from one |K| x |K| solve, Q Z_2 = (I + Pi0_KK) Pi_K: - Pi0_K (_woodbury_z2).
    No inverse of order 2|K| is formed, and neither U nor Z: U is read as
    E_K and V_:K, Z as Pi_K: and Z_2.  What the shortcut and the solves
    leave is in the measured defect F' = Vf - T Z, formed a block of rows
    at a time for its norm and never kept.

    The member A_0 is I - U Z, never formed, and (I + U Vf)(I - U Z) - I =
    U (Vf - T Z) for the exact T, so the returned
    solve_term >= ||U (Vf - (I + Vf U) Z)|| (||U|| times the measured F'
    plus the rounding of T and of F', both formed by blocked_matmul)
    bounds ||(I + U Vf) A_0 - I||.  Returns Z_2 and solve_term.
    """
    k = V_K.shape[1]
    T, t_order = blocked_matmul(Vf, V_K)
    np.negative(T, out=T)
    T = np.concatenate([Vf[:, ker], T], axis=1)  # Vf U
    T.flat[:: 2 * k + 1] += 1
    Z_2 = _woodbury_z2(T, Pi_K, Vf[:k])
    f_order = 0

    def f_rows(sl):  # the rows sl of F' = Vf - T Z
        nonlocal f_order
        TZ, o_1 = blocked_matmul(T[sl, :k], Pi_K)
        TZ_2, o_2 = blocked_matmul(T[sl, k:], Z_2)
        TZ += TZ_2
        f_order = max(o_1, o_2) + 1
        return np.subtract(Vf[sl], TZ, out=TZ)

    f_norm = norm2_upper_blocks(Vf.shape, f_rows)
    # T is within gamma_{t+1} (|Vf| |U| + I) of I + Vf U, F' within
    # gamma_{f+1} (|Vf| + |T| |Z|) of Vf - T Z; |U| |Z| = E_K |Pi_K:| + |V_:K| |Z_2|
    solve_defect = (f_norm + gamma(f_order + 1) * norm2_upper_abs(
        (Vf,), (T[:, :k], Pi_K), (T[:, k:], Z_2))
        + gamma(t_order + 1) * (norm2_upper_abs((Vf[:, ker], Pi_K), (Vf, V_K, Z_2))
                                + norm2_upper(Pi_K) + norm2_upper(Z_2)))
    # ||U||^2 <= ||E_K||^2 + ||V_:K||^2
    return Z_2, math.sqrt(1 + norm2_upper(V_K) ** 2) * solve_defect


def _woodbury_z2(T, Pi_K, Pi0_K):
    """Z_2 of woodbury_a0, from -T_12 Z_2 = T_11 Pi_K: - Pi0_K: one |K| x |K| solve
    for [A_1, A_2] = -T_12^{-1} [T_11, I], then Z_2 = A_1 Pi_K: - A_2 Pi0_K a block
    of columns at a time."""
    k, D = Pi_K.shape
    try:
        A = np.linalg.solve(-T[:k, k:], np.concatenate([T[:k, :k], np.eye(k)], axis=1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Woodbury block of A0 singular: {exc}") from exc
    Z_2 = np.empty((k, D))
    for cols in eighth_blocks(D):
        np.matmul(A[:, :k], Pi_K[:, cols], out=Z_2[:, cols])
        Z_2[:, cols] -= A[:, k:] @ Pi0_K[:, cols]
    return Z_2


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
# order 2|K| each: 0 .. 3 give 1.91, 1.38, 1.18, 1.086 at n=1 N=12, ||U Vf|| = 1.001
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


def _times_utu(d, V_KK, VV, F):
    """(U^T U) F in place of F, U^T U = [[diag(d), -V_KK], [-V_KK^T, VV]] not formed."""
    k = d.size
    T = V_KK.T @ F[:k]
    F[:k] *= d[:, None]
    F[:k] -= V_KK @ F[k:]
    np.subtract(VV @ F[k:], T, out=F[k:])
    return F


def _r0_a0_norms(V_K, Vf, Pi_K, Z_2, ker, interior):
    """Upper bounds on ||U Vf|| (R_0), on it on the interior rows and columns, and on
    ||U Z|| (A_0 = I - U Z) from their Grams (_product_norm_upper).  U = [E_K, -V_:K] is
    not formed: U^T U = [[I, -V_KK], [-V_KK^T, V_:K^T V_:K]], and the interior rows drop
    the rows K outside them.  ||U Z|| only scales a small defect, so takes no squarings."""
    D, k = V_K.shape
    V_KK, VV = V_K[ker], V_K.T @ V_K
    f_u, f_vf = k + _frobenius_upper(V_K) ** 2, _frobenius_upper(Vf) ** 2
    ones = np.ones(k)
    n_uvf = _product_norm_upper(_times_utu(ones, V_KK, VV, Vf @ Vf.T),
                                f_u, f_vf, D, _GRAM_SQUARINGS)
    pz = Pi_K @ Z_2.T
    M = _times_utu(ones, V_KK, VV, np.block([[Pi_K @ Pi_K.T, pz], [pz.T, Z_2 @ Z_2.T]]))
    n_uz = _product_norm_upper(M, f_u, _frobenius_upper(Pi_K) ** 2 + _frobenius_upper(Z_2) ** 2, D)
    del pz, M, VV
    in_k = interior[ker].astype(float)
    V_KK *= in_k[:, None]
    M = _times_utu(in_k, V_KK, _gram_rows(V_K, interior), _gram_rows(Vf.T, interior))
    return n_uvf, _product_norm_upper(M, f_u, f_vf, D, _GRAM_SQUARINGS), n_uz


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
    P_hat = W^{-1} P_d its exact operator; neither is formed.  W acts by
    passes of the powers of M (taylor_exp_apply).  One pass gives the
    columns K of W (stored as the rows W_K:, within e = fl(W_:K) - W_:K,
    ||e|| <= n_e) and V_:K, which stands in for W^{-1} E_K
    (hatted_gjms: ||F|| <= n_f, F = W V_:K - E_K).  A_0 = (I + R_0)^{-1}
    comes from the Woodbury identity on I + R_0 = I + U Vf, U = [E_K, -V_:K]
    and Vf = [Pi0_K; W_K:] of rank 2|K| (woodbury_a0); the Neumann series
    would not do: the W-adjoint Pi_0 - I_K of R_0 fixes the constant
    function, so its spectral radius is at least one.  Pi is the
    W-orthogonal projector onto K, from the one solve
    Pi_K: = W_KK^{-1} W_K: (the Woodbury solve reuses it as Z_1), and the
    smallest nonzero eigenvalue of the pencil comes with a certified
    enclosure from a block iteration (low_eigenvalue_enclosure).

    The members are diagonals, the exact W, or factors with at most 2|K|
    rows or columns, each stored once (the tests expand them:
    tests/chain_members.py): G0 = P^+ W, R0 = U Vf, A0 = I - U Z
    (Z = [Pi_K:; Z_2]), G = (I - Pi) P^+ B' with B' = W - fl(W_:K) Pi_K:,
    G_oo = (I - Pi_oo) G_0 A_0, Pi and Pi_oo as their rows in K, and of
    the Szego pair the |K| x |K| factor of Im S_K: = Im(C) W_K:
    (Re S = Pi0 / 2).  The diagonal of G_0 = N_n ... N_{-n} is P^+ (the
    partial inverses of commuting diagonals), so G_0 is stored as P^+: for
    P < 2^53 (n <= 8 under BASIS_CAP) the float tables of both are the
    floats 1/P, and P_d P^+ - 1_C is charged as c in any case.  No D x D
    array is formed: the work is one pass of width |K| (two more per
    refinement step of hatted_gjms) and the low
    eigenvalue's passes on D x w blocks, and the transients are blocks of a
    pass (three or four D x |K| arrays), blocks of at most 1 MB for the
    norms of dense arrays, blocks of rows for the Woodbury defect and the
    Gram matrices, and two arrays of order 2|K|.

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

    G_oo - G and Pi_oo - Pi hold only rounding (G_oo = G and Pi_oo = Pi in
    exact arithmetic); Pi_oo - Pi and Pi_oo^2 - Pi_oo are formed from the
    rows K and measured ("dense").  A product X P_hat is bounded without
    P_hat (_TimesHat), with P_d kept inside the norm of X P_d.  Three
    identities vanish exactly for the exact P_hat (W P_hat = P_d, and P_d
    is zero on K): W P_hat - (W P_hat)^T, Pi^T W P_hat and Pi_oo^T W P_hat,
    and P_hat Pi; they are recorded as 0.0 ("structural").

    Norms with W: |W| <= T_K(|M|) entrywise and a pass is within
    R |X| of the exact product (weight.abs_taylor), so every norm that reads W is a
    norm2_upper_abs of a product of absolute values with those operators,
    the P_d and P^+ scalings inside it; h = P^+ W^ (I + E_K |Pi_K:|),
    W^ = T_K(|M|) + R, bounds |P^+ B| and |P^+ B'|.
    ||U Vf|| and ||U Z|| come from Gram matrices of order 2|K|
    (_r0_a0_norms).  The lower norm of G is its largest column j at the
    smallest nonzero P_d, G e_j = (I - Pi) P^+ W (I - Pi) e_j with W by
    one pass, less the rounding and e_G, and ||G_oo|| >= ||G|| - ||G_oo - G||.
    Every bound ("factored" in residual_routes) is a certified upper bound
    on the spectral norm of the identity evaluated exactly on the members;
    its interior entry repeats the full bound, except R0_interior.  The
    defects of Pi_oo and G_oo add (1 + kappa) ||Pi - Pi_oo|| and
    (1 + kappa) ||G - G_oo||, kappa = W_ub / lambda_lb, to those of Pi and
    G.  inverse_defect_bound is the bound on ||d||.  The members are
    float64 arrays in the real frame (RealFrame); S, Sbar and Pi_0 are
    formed from S_imag and Vf on request.
    """
    n, N = basis.n, basis.N
    D = basis.total_dim
    interior = interior_mask(basis)
    ker = kernel_mask(basis)
    k = int(ker.sum())
    E_K = Columns(ker)

    P_d = critical_gjms(basis).to_diag_vector(basis)
    p = pseudo_inverse_diag(P_d, ker)
    # c_max >= |P_d P^+ - 1_C| entrywise, and eta >= |x - 1| for x = p g (1 + d),
    # |d| <= u: the member G_0 = P^+ W, rounded, scaled by P_d
    c_max = scaling_defect(P_d, p)
    eta = c_max + gamma(2)
    lam_lb, w_ub = weight.min_eigenvalue_bound, weight.max_eigenvalue_bound
    abs_w = weight.abs_taylor  # >= |W|
    R = abs_w.rounding()  # >= the rounding of a pass, on |X|
    w_hat = abs_w.scaled(1 + R.c0, R.c1)  # >= |W| and |fl(W X)| on |X|

    # Vf = [Pi0_K; W_K:], its blocks written in place: W_K: by the pass (W_:K is
    # symmetric to it), and Pi0_K = 2 Re S_K: = 2 Re(C) W_K:
    Vf = np.empty((2 * k, D))
    Pi0_K, W_K = Vf[:k], Vf[k:]
    V_K, n_f, n_e = hatted_gjms(basis, weight, W_K.T)
    e_v = n_f / lam_lb
    Pi_K = weight.projector_rows(ker, W_K)
    C_S = szego_rows(basis, W_K)
    np.matmul(2 * C_S.real, W_K, out=Pi0_K)
    S_imag = np.ascontiguousarray(C_S.imag)  # Im S_K: = S_imag W_K:
    Z_2, solve_term = woodbury_a0(Vf, Pi_K, V_K, ker)
    n_uvf, n_uvf_int, n_uz = _r0_a0_norms(V_K, Vf, Pi_K, Z_2, ker, interior)
    W_KK = W_K[:, ker]
    n_pi, n_w = norm2_upper(Pi_K), norm2_upper(W_K)

    times_hat = _TimesHat(weight, P_d)
    # r = W_K: - W_KK Pi_K: for the exact W is the defect of Pi_K:; from the
    # stored rows it is r^ - e^T + e^T E_K Pi_K:, r^ formed within gamma_{k+1}
    r = W_KK @ Pi_K
    np.subtract(W_K, r, out=r)

    def scaled_r(s):  # >= ||r diag(s)||
        return (norm2_upper_abs((r, s)) + gamma(k + 1) * norm2_upper_abs((W_K, s), (W_KK, Pi_K, s))
                + norm2_upper_abs((s, R, E_K)) + n_e * norm2_upper_abs((Pi_K, s)))

    n_r, n_rp = scaled_r(np.ones(D)), scaled_r(P_d)
    n_rs = scaled_r(np.sqrt(p)) * (1 + gamma(3))  # >= ||r_KC P_C^{-1/2}||
    del r
    lam_min, lam_enclosure, group = low_eigenvalue_enclosure(  # n_wk >= ||W_K:||
        P_d, weight, ker, Pi_K, n_pi, n_rs, n_wk=n_w + n_e)

    diag = ChainDiagnostics("matrix")
    diag.record("A0_method", "woodbury")
    diag.record("kernel_dim", k)
    diag.record("min_nonzero_abs_eigenvalue", lam_min)
    diag.record("min_nonzero_abs_eigenvalue_enclosure", lam_enclosure)
    diag.record("min_nonzero_abs_eigenvalue_group_size", group)
    diag.record("weight_min_eigenvalue_bound", weight.min_eigenvalue_bound)
    diag.record("inverse_defect_bound", e_v)

    def rec(name, X, rows):
        # X holds the only nonzero rows of the residual
        diag.record(f"{name}_full", norm2_upper(X), "dense")
        diag.record(f"{name}_interior", norm2_upper(X[np.ix_(interior[rows], interior)]), "dense")

    def bound(name, full, interior_value=None):
        diag.record(f"{name}_full", full, "factored")
        diag.record(f"{name}_interior", full if interior_value is None else interior_value,
                    "factored")

    def structural(name):
        diag.record(name, 0.0, "structural")

    n_vk = norm2_upper(V_K)
    # Pi_0 A_0 = Pi0_K (I - E_K Pi_K: + V_:K Z_2)
    PiInf_K = Pi0_K[:, ker] @ Pi_K
    np.subtract(Pi0_K, PiInf_K, out=PiInf_K)
    Q = Pi0_K @ V_K
    for cols in eighth_blocks(D):
        PiInf_K[:, cols] += Q @ Z_2[:, cols]
    del Q

    # R_0 and A_0: ||R_0 - U Vf|| <= ||d|| ||W_K:|| + ||W^{-1} E_K|| ||e|| + eta ||W|| / lambda_lb
    e_r0 = e_v * n_w + (n_vk + e_v) * n_e + eta * w_ub / lam_lb
    bound("R0", n_uvf + e_r0, n_uvf_int + e_r0)
    diag.record("A0_residual", solve_term + e_r0 * (1 + n_uz), "factored")

    members = {
        "S_imag": S_imag, "P_diag": P_d, "P_plus": p,
        "V_K": V_K, "Vf": Vf, "Z2": Z_2, "Pi": Pi_K, "PiInf": PiInf_K,
    }

    rec("PiInf_sq_minus_PiInf", PiInf_K[:, ker] @ PiInf_K - PiInf_K, ker)
    rec("Pi_minus_PiInf", Pi_K - PiInf_K, ker)
    structural("PPi_full")
    structural("PPi_interior")

    # ||L X (I + E_K |Pi_K:|) R|| for an operator X (T_K(|M|), W^ or R) and diagonals L, R;
    # h = P^+ W^ (I + E_K |Pi_K:|) bounds |P^+ B| and |P^+ B'|
    def wide(X, *right, left=()):
        return norm2_upper_abs((*left, X, *right), (*left, X, E_K, Pi_K, *right))

    n_h, n_hp = wide(w_hat, left=(p,)), wide(w_hat, P_d, left=(p,))  # >= ||h||, ||h P_d||
    # e_G = -(I - Pi) P^+ e Pi_K:, |P^+ e Pi_K:| <= P^+ R E_K |Pi_K:|
    n_pe = norm2_upper_abs((p, R, E_K, Pi_K))
    n_eg = (1 + n_pi) * n_pe  # >= ||e_G||
    n_egp = (1 + n_pi) * norm2_upper_abs((p, R, E_K, Pi_K, P_d))  # >= ||e_G P_d||
    diff = 1 + gamma(1)  # a computed difference against the exact one
    # Pi G = Pi_K: (I - Pi) P^+ B' = (I - Pi_KK) Pi_K: P^+ B', I - Pi_KK formed exactly
    bound("PiG", diff * norm2_upper(np.eye(k) - Pi_K[:, ker]) * n_pi * n_h)

    # P_hat G + Pi - I: |B| <= |W| (I + E_K |Pi_K:|), and P_d e_G = -(1_C + c) e Pi_K:
    b_pg = ((n_vk + e_v) * n_r
            + (c_max * wide(abs_w) + (1 + c_max) * norm2_upper_abs((R, E_K, Pi_K))) / lam_lb)
    bound("PG_plus_Pi_minus_I", b_pg)

    # G P_hat + Pi - I, with ||W_KK^{-1} r P_hat|| <= n_y and ||P^+ W_:K|| <= n_pw
    n_y = times_hat(n_rp, n_r) / lam_lb
    n_pw = norm2_upper_abs((p, W_K.T), (p, R, E_K))
    b_gp = n_r / lam_lb + (1 + n_pi) * (c_max + n_pw * n_y) + times_hat(n_egp, n_eg)
    bound("GP_plus_Pi_minus_I", b_gp)

    # G_oo - G from the factors: on the rows C, P^+ W A_0 - P^+ B' =
    # P^+ F Z_2 + P^+ e Pi_K: with ||F|| <= n_f (P^+ E_K = 0);
    # on the rows K, -PiInf_K: (G_0 A_0) + Pi_K: P^+ B' =
    # -(PiInf_K: - Pi_K:) G_C - PiInf_K: (G_oo - G)_C
    n_piinf = norm2_upper(PiInf_K)
    pi_diff = diff * diag.entries["Pi_minus_PiInf_full"]

    def goo_minus_g(h_r, right=(), left=()):
        """>= ||L (G_oo - G) R|| for the members, L = left and R = right diagonals, from
        h_r >= ||L h R||; left = (P_d,) drops the rows K, where P_d vanishes."""
        a = norm2_upper_abs
        g_max = float(np.max(p * left[0] if left else p)) * diff
        pe = a((*left, p, R, E_K, Pi_K, *right)) if left or right else n_pe
        rows_c = g_max * n_f * a((Z_2, *right)) + pe
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
    structural("P_hat_adjoint_defect")
    for name, value in (
        ("G", _ratio(g_skew, lam_lb * lower_g)),
        ("Pi", _ratio(n_delta, lam_lb * norm2_lower(Pi_K))),
        ("PiInf", _ratio(n_delta / lam_lb + (1 + kappa) * pi_diff, norm2_lower(PiInf_K))),
        ("GInf", _ratio(g_skew / lam_lb + (1 + kappa) * n_diff, lower_ginf)),
    ):
        diag.record(f"{name}_adjoint_defect", value, "factored")

    # Ran P_hat orthogonal to Ran Pi and Ran Pi_oo in the weighted inner product
    structural("ran_orthogonality_defect")
    structural("ran_orthogonality_defect_PiInf")

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
