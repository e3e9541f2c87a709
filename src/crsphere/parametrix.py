"""Partial inverses, Szego projectors, and the parametrix chain.

The chain follows one recipe in two regimes:

    G_0   = N_n N_{n-2} ... N_{-n}       (partial inverses of the L_mu)
    Pi_0  = S + Sbar
    R_0   = P G_0 + Pi_0 - I
    A_0   = (I + R_0)^{-1}               (closed form, Neumann, or direct)
    Pi_oo = Pi_0 A_0
    G_oo  = (I - Pi_oo) G_0 A_0

On the standard sphere everything is diagonal and the chain closes exactly:
R_0 = S Sbar has rank one, A_0 = I - R_0/2, Pi_oo equals the pluriharmonic
projection and G_oo the partial inverse of P, with every residual
identically zero in rational arithmetic.

In the perturbed regime P_hat = e^{-(n+1)Upsilon} P acts on the truncated
basis through the weighted Galerkin matrix W^{-1} P_diag (the critical-
weight transformation law makes the sesquilinear form of P_hat equal the
standard diagonal form).  S and Sbar become the weight-orthogonal
projectors onto the unchanged holomorphic / antiholomorphic subspaces, and
G_0 transports as G_0 M_w with w the truncated conformal volume factor.
The final Pi and G are the spectral kernel projector and partial inverse of
the truncated operator; every chain identity is recorded as a residual
norm on the full truncation and on the interior blocks.

Reported residual norms are certified upper bounds on the spectral norm,
sqrt(||X||_1 ||X||_inf) (galerkin.norm2_upper), not SVD values, so every
gate on them is at least as strict as a gate on the spectral norm.  A
relative defect divides the upper bound of its numerator by the lower bound
max_j ||X e_j||_2 (galerkin.norm2_lower) of its denominator, so the ratio
is still an upper bound on the spectral-norm ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .galerkin import InnerProductWeight, OperatorMatrix, norm2_lower, norm2_upper
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


def partial_inverse(D: DiagonalOperator) -> DiagonalOperator:
    """Reciprocal eigentable off the kernel, zero on it."""
    return D.partial_inverse()


# ---------------------------------------------------------------------------
# diagnostics containers
# ---------------------------------------------------------------------------


@dataclass
class ChainDiagnostics:
    """Residuals of the chain identities; nothing is silently dropped."""

    mode: str
    entries: dict = field(default_factory=dict)

    def record(self, name, value):
        self.entries[name] = value

    def to_jsonable(self):
        out = {"mode": self.mode}
        for k, v in sorted(self.entries.items()):
            if isinstance(v, Fraction):
                out[k] = str(v)
            elif isinstance(v, float):
                out[k] = v
            else:
                out[k] = v
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

    # R_0 is idempotent on the sphere, so the Neumann series sums in closed form
    r0_idempotent = R0.compose(R0).equals(R0)
    if r0_idempotent:
        A0 = ident - R0.scale(Fraction(1, 2))
        a0_method = "closed_form"
    else:
        A0 = DiagonalOperator(
            n, N, {k: Fraction(1) / (1 + v) for k, v in R0.table.items()}, 0, "A0"
        )
        a0_method = "diagonal_inverse"
    A0 = DiagonalOperator(n, N, A0.table, order_tag=0, label="A0")

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
    diag.record("A0_method", a0_method)
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


def cluster_eigenvalues(values, multiplicities, rel_tol=1e-8, blocks=None):
    """Group sorted eigenvalues whose relative distance is below rel_tol."""
    order = np.argsort(values)
    clusters = []
    for idx in order:
        v = float(values[idx])
        m = int(multiplicities[idx])
        b = blocks[idx] if blocks is not None else None
        if clusters:
            last = clusters[-1]
            scale = max(abs(v), abs(last.value), 1e-300)
            if abs(v - last.value) <= rel_tol * scale:
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
    max_imag: float = 0.0
    eigenvectors: np.ndarray | None = None
    kernel_tol: float = 0.0


def spectrum_diagonal(D: DiagonalOperator, rel_tol=1e-8) -> SpectrumResult:
    """Spectrum of a diagonal operator: eigentable values with block dims."""
    blocks = D.blocks()
    vals = np.array([float(D.table[b]) for b in blocks])
    mults = np.array([dim_hpq(D.n, p, q) for (p, q) in blocks])
    clusters = cluster_eigenvalues(vals, mults, rel_tol, blocks=list(blocks))
    kernel = sum(m for v, m in zip(vals, mults) if v == 0.0)
    flat = np.repeat(vals, mults)
    flat.sort()
    return SpectrumResult(flat, clusters, int(kernel))


def spectrum_matrix(P_diag_vec, weight: InnerProductWeight, kernel_tol=1e-10,
                    rel_tol=1e-8) -> SpectrumResult:
    """Generalized Hermitian eigenproblem P_d x = lambda W x.

    Returns real eigenvalues, W-orthonormal eigenvectors, and the numerical
    kernel dimension at the given absolute tolerance.
    """
    D = len(P_diag_vec)
    # A is local and in LAPACK's (Fortran) order, so eigh can overwrite it
    # instead of copying it
    A = np.diag(P_diag_vec).astype(complex, order="F")
    try:
        evals, evecs = scipy.linalg.eigh(A, weight.matrix, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"generalized eigensolver failed: {exc}") from exc
    tol = max(kernel_tol, 1e-13 * float(np.max(np.abs(evals), initial=0.0)))
    kernel = int(np.sum(np.abs(evals) <= tol))
    clusters = cluster_eigenvalues(evals, np.ones(D, dtype=int), rel_tol)
    return SpectrumResult(evals, clusters, kernel, 0.0, evecs, tol)


def min_nonzero_abs_eigenvalue(result: SpectrumResult):
    nz = np.abs(result.eigenvalues)[np.abs(result.eigenvalues) > result.kernel_tol]
    return float(nz.min()) if nz.size else None


# ---------------------------------------------------------------------------
# matrix chain (conformally perturbed sphere)
# ---------------------------------------------------------------------------


def hatted_gjms(basis: HarmonicBasis, weight: InnerProductWeight) -> OperatorMatrix:
    """Galerkin matrix of P_hat = e^{-(n+1)Upsilon} P, i.e. W^{-1} P_diag.

    The critical-weight law makes <P_hat u, v>_hat = <P u, v>_std, so the
    hatted operator's sesquilinear form is the exact diagonal table and the
    operator matrix is the weight inverse applied to it.
    """
    P_d = critical_gjms(basis).to_diag_vector(basis)
    entries = weight.solve(np.diag(P_d).astype(complex))
    return OperatorMatrix(entries, weight, basis, label="P_hat")


def _estimate_spectral_radius(R, iters=60, seed=11):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(R.shape[0]) + 1j * rng.standard_normal(R.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(iters):
        w = R @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        radius = nw
        v = w / nw
    return float(radius)


def build_chain_matrix(P_hat: OperatorMatrix, weight: InnerProductWeight,
                       neumann_depth=30, radius_threshold=0.95,
                       kernel_tol=1e-10) -> ParametrixChain:
    """Parametrix chain with matrix arithmetic on the truncated basis.

    A_0 uses the truncated Neumann series when the estimated spectral radius
    of R_0 permits, else reports the radius and falls back to direct
    inversion of I + R_0 (on the round sphere the radius is 1, so the
    fallback is the normal path there).
    """
    basis = P_hat.basis
    n, N = basis.n, basis.N
    D = basis.total_dim
    W = weight.matrix
    ident = np.eye(D, dtype=complex)
    interior = np.array([p + q <= N - 4 for p, q, _, _ in basis.index_blocks()])

    holo = np.array([q == 0 for p, q, _, _ in basis.index_blocks()])
    anti = np.array([p == 0 for p, q, _, _ in basis.index_blocks()])

    P_d = critical_gjms(basis).to_diag_vector(basis)
    G0_d = critical_gjms(basis).partial_inverse().to_diag_vector(basis)

    S_hat = weight.projector(holo)
    Sb_hat = weight.projector(anti)
    Pi0 = S_hat + Sb_hat
    G0 = G0_d[:, None] * W  # Galerkin of G0 . M_w; G0 is block diagonal, no leakage
    Pmat = P_hat.entries

    R0 = Pmat @ G0 + Pi0 - ident
    radius = _estimate_spectral_radius(R0)
    if radius < radius_threshold and neumann_depth > 0:
        A0 = ident.copy()
        term = ident.copy()
        for _ in range(neumann_depth):
            term = -(R0 @ term)
            A0 += term
        a0_method = f"neumann_depth_{neumann_depth}"
    else:
        A0 = scipy.linalg.solve(ident + R0, ident)
        a0_method = "direct_inverse"

    PiInf = Pi0 @ A0
    GInf = (ident - PiInf) @ G0 @ A0

    spec = spectrum_matrix(P_d, weight, kernel_tol=kernel_tol)
    V = spec.eigenvectors
    lam = spec.eigenvalues
    kernel_mask = np.abs(lam) <= spec.kernel_tol
    inv_lam = np.where(kernel_mask, 0.0, np.where(lam != 0, 1.0 / np.where(lam == 0, 1.0, lam), 0.0))
    # V is W-orthonormal: V^* W V = I, so V^* W is the analysis map
    VW = V.conj().T @ W
    G = (V * inv_lam[None, :]) @ VW
    Pi = V[:, kernel_mask] @ VW[kernel_mask, :]

    diag = ChainDiagnostics("matrix")
    diag.record("spectral_radius_R0_estimate", radius)
    diag.record("A0_method", a0_method)
    diag.record("kernel_dim", spec.kernel_dim)
    diag.record("kernel_tol", spec.kernel_tol)
    diag.record("min_nonzero_abs_eigenvalue", min_nonzero_abs_eigenvalue(spec))
    diag.record("weight_min_eigenvalue", weight.min_eigenvalue)
    diag.record("weight_tail_bound", weight.tail_bound)

    def rec(name, X):
        diag.record(f"{name}_full", norm2_upper(X))
        diag.record(f"{name}_interior", norm2_upper(X[np.ix_(interior, interior)]))

    rec("PG_plus_Pi_minus_I", Pmat @ G + Pi - ident)
    rec("GP_plus_Pi_minus_I", G @ Pmat + Pi - ident)
    rec("PGInf_plus_PiInf_minus_I", Pmat @ GInf + PiInf - ident)
    rec("R_inf", GInf @ Pmat + PiInf - ident)
    rec("PiInf_sq_minus_PiInf", PiInf @ PiInf - PiInf)
    rec("Pi_minus_PiInf", Pi - PiInf)
    rec("G_minus_GInf", G - GInf)
    rec("PiG", Pi @ G)
    rec("PPi", Pmat @ Pi)
    rec("R0", R0)

    diag.record("P_hat_adjoint_defect", weight.adjoint_defect(Pmat))
    diag.record("G_adjoint_defect", weight.adjoint_defect(G))
    diag.record("Pi_adjoint_defect", weight.adjoint_defect(Pi))
    diag.record("PiInf_adjoint_defect", weight.adjoint_defect(PiInf))
    diag.record("GInf_adjoint_defect", weight.adjoint_defect(GInf))

    # Ran P_hat orthogonal to Ran Pi in the weighted inner product
    pairing = Pi.conj().T @ W @ Pmat
    scale = max(norm2_lower(Pi) * norm2_lower(W) * norm2_lower(Pmat), 1e-300)
    diag.record("ran_orthogonality_defect", norm2_upper(pairing) / scale)
    pairing_inf = PiInf.conj().T @ W @ Pmat
    diag.record("ran_orthogonality_defect_PiInf", norm2_upper(pairing_inf) / scale)

    members = {
        "P_hat": Pmat, "S": S_hat, "Sbar": Sb_hat,
        "G0": G0, "Pi0": Pi0, "R0": R0, "A0": A0,
        "PiInf": PiInf, "GInf": GInf, "Pi": Pi, "G": G,
        "P_diag": P_d, "eigenvalues": lam, "eigenvectors": V,
    }
    return ParametrixChain(n, N, "matrix", members, diag, weight=weight, basis=basis)


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
