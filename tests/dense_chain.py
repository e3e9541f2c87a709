"""The dense parametrix chain: the test oracle of the matrix-free one.

crsphere.parametrix.build_chain_matrix never forms W = T_K(M); the chain
here is the route it replaced, kept to hold it to: the dense weight
(weight.matrix, the Paterson-Stockmeyer Taylor sum), V_:K from one LU of
W with |K| right-hand sides and its measured defect W V_:K - E_K
(hatted_gjms_dense), Pi_K: from the dense W_KK, the rows K of G from one
|K| x D x D product, the commutator [P_d, W] formed a block of rows at a
time (_Commutator) and the norms of every term that reads W taken from the
dense array, and the Woodbury solve on D-wide rows: Z_2, Pi_oo's rows K and
the defect Vf - T Z formed, the norms of R_0 and A_0 from the Grams of those
rows (woodbury_a0_dense, r0_a0_norms_dense), where the chain keeps every
member of |K| rows but W_K: and Pi_K: as a coefficient on them.  It shares
the chain's other steps (the Szego rows, the low eigenvalue's block
iteration).
taylor_rounding_bound bounds the rounding of the dense Taylor sum
(crsphere.galerkin.taylor_exp_matrix) that route rests on.
"""

import math

import numpy as np

from crsphere.errors import NumericalError
from crsphere.galerkin import (
    blocked_matmul,
    eighth_blocks,
    gamma,
    norm2_lower,
    norm2_upper,
    norm2_upper_abs,
    norm2_upper_blocks,
)
from crsphere.parametrix import (
    _GRAM_SQUARINGS,
    ChainDiagnostics,
    ParametrixChain,
    _frobenius_upper,
    _gram_rows,
    _product_norm_upper,
    _ratio,
    interior_mask,
    kernel_mask,
    low_eigenvalue_enclosure,
    pseudo_inverse_diag,
    scaling_defect,
    szego_rows,
)
from crsphere.spectral import critical_gjms


def taylor_rounding_bound(a: float, D: int, K: int) -> float:
    """Bound rho on ||fl(W) - T_K(M)||_2 for the dense weight W = T_K(M), ||M||_2 <= a.

    It also bounds the distance of the symmetrized fl(W) from the symmetric
    part of T_K(M).

    W is taylor_exp_matrix (Paterson and Stockmeyer, s = 3,
    X = M^s, T_K(M) = sum_j B_j X^j), symmetrized as 0.5 (W + W^*).  Every
    rounded step commits, entrywise, at most c = sqrt(2) gamma_{2D+s+2}
    times the absolute values it combines (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.5-3.6: the real part of a length-D complex
    inner product is a sum of 2D products; a real M commits less):
      - a power P_i = fl(M P_{i-1}), at most c |M| |P_{i-1}|;
      - a Horner step fl(E_{j+1} X + B_j), with B_j's s terms
        (1 / k! rounded once, its product rounded once) summed into the
        product, at most c (|E_{j+1}| |X| + I / (js)! + sum_{i>=1} |M^i| / (js+i)!);
        the identity term sits on the diagonal alone.
    With ||abs(Y)||_2 <= sqrt(D) ||Y||_2, ||M^k|| <= a^k and T_K(a) <= e^a,
    to first order in c:
      - the power errors: P_i is off by at most (i-1) c D a^i, and term
        k = js + i of the sum reaches it through (i-1) + j (s-1) <= k-1
        products, so they add at most c D sum_k (k-1) a^k / k! <= c D a^2 e^a;
      - step j's error reaches the result through X^j, on the right (norm
        a^{sj}).  With b_j = sum_{i>=1} a^i / (js+i)!, ||B_j|| <= 1 / (js)! + b_j
        and ||E_{j+1}|| <= sum_{l>j} a^{s(l-j-1)} ||B_l||, so the product terms
        sum to c D sum_{l>=1} l a^{sl} ||B_l|| <= c D (a / s) e^a (l <= k / s
        for every term k of B_l), and the B_j terms to
        c sum_j a^{sj} (1 / (js)! + sqrt(D) b_j) <= c e^a (1 + sqrt(D) a);
      - the symmetrization is exact on the diagonal and rounds each
        off-diagonal entry once, at most u sqrt(D) ||offdiag(W)|| <= 2 sqrt(D) u a e^a,
        below c sqrt(D) a e^a.
    The sum is c e^a (D a (a + 1/s) + 2 sqrt(D) a + 1).  The factor 2 of
    rho takes the second-order terms (errors measured on computed rather
    than exact factors, and products of two errors), smaller than the
    first-order ones by a factor of order c D K, below 1e-6 for D up to
    10^4 at K = 12.  The bound is on the sum applied to M as assembled; how far the
    assembled M is from the exact Galerkin matrix is charged in the weight's
    multiplier_bound (ContactPerturbation.multiplier_matrix).
    """
    s = 3  # the split of taylor_exp_matrix
    c = math.sqrt(2) * gamma(2 * D + s + 2)
    return 2 * c * math.exp(a) * (D * a * (a + 1 / s) + 2 * math.sqrt(D) * a + 1)


def hatted_gjms_dense(basis, weight):
    """The columns K of W^{-1}, all P_hat = e^{-(n+1)Upsilon} P = W^{-1} P_d needs, and their defect.

    The critical-weight law makes <P_hat u, v>_hat = <P u, v>_std, so the
    hatted operator's sesquilinear form is the exact diagonal table and the
    operator is W^{-1} P_d on the stored dense W.  The chain never forms
    it: P_d vanishes on the kernel coordinates K, so its identities need
    W^{-1} only on the columns K, V_:K, solved for from W V_:K = E_K by one
    LU with |K| right-hand sides (weight.solve).  The defect
    F = W V_:K - E_K is measured from the product blocked_matmul forms,
    within gamma_o |W| |V_:K| of the exact one, so

        ||F|| <= n_f = (1 + gamma_1) ||fl(F)|| + gamma_o || |W| |V_:K| ||,

    and W^{-1} E_K - V_:K = -W^{-1} F exactly, so ||W^{-1} E_K - V_:K|| is
    at most n_f / lambda_lb.  The product is dropped once measured.  A
    defect that is not finite (a failed solve) raises NumericalError.
    Returns V_:K and n_f.
    """
    ker = kernel_mask(basis)
    at = (np.flatnonzero(ker), np.arange(int(ker.sum())))  # the entries of E_K that are 1
    E_K = np.zeros((ker.size, at[1].size))
    E_K[at] = 1
    V_K = weight.solve(E_K)
    del E_K
    W = weight.matrix
    F, order = blocked_matmul(W, V_K)
    F[at] -= 1
    f = norm2_upper(F)
    del F
    if not math.isfinite(f):
        raise NumericalError(f"defect ||W V_:K - E_K|| of the kernel columns of W^-1 "
                             f"is not finite ({f})")
    return V_K, (1 + gamma(1)) * f + gamma(order) * norm2_upper_abs((W, V_K))


def woodbury_a0_dense(Vf, Pi_K, V_K, ker):
    """A_0 = (I + R_0)^{-1} as I - U Z, with Vf = [Pi_0[K]; W_K:], Pi_K = Pi_K: and V_K = V_:K.

    P_d P^+ is the indicator of C = ~K, so P_hat G_0 = W^{-1} P_d P^+ W =
    I - W^{-1} E_K W_K:, and Pi_0 = E_K Pi0_K.  With V_:K for W^{-1} E_K,
    I + R_0 = I + U Vf with U = [E_K, -V_:K] and Vf = [Pi0_K; W_K:], and by
    the Woodbury identity A_0 = I - U Z with T Z = Vf, T = I_{2|K|} + Vf U.
    With Q = Pi0_K V_:K and W_K: V_:K = I + F_KK (F the defect of V_:K),

        T = [[I + Pi0_KK, -Q], [W_KK, -F_KK]],

    and F_KK vanishes up to rounding, so the second block row makes
    Z_1 = W_KK^{-1} W_K: = Pi_K:, already solved, and the first gives Z_2
    from one |K| x |K| solve, Q Z_2 = (I + Pi0_KK) Pi_K: - Pi0_K (_woodbury_z2_dense).
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
    Z_2 = _woodbury_z2_dense(T, Pi_K, Vf[:k])
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


def _woodbury_z2_dense(T, Pi_K, Pi0_K):
    """Z_2 of woodbury_a0_dense, from -T_12 Z_2 = T_11 Pi_K: - Pi0_K: one |K| x |K| solve
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


def _times_utu(d, V_KK, VV, F):
    """(U^T U) F in place of F, U^T U = [[diag(d), -V_KK], [-V_KK^T, VV]] not formed."""
    k = d.size
    T = V_KK.T @ F[:k]
    F[:k] *= d[:, None]
    F[:k] -= V_KK @ F[k:]
    np.subtract(VV @ F[k:], T, out=F[k:])
    return F


def r0_a0_norms_dense(V_K, Vf, Pi_K, Z_2, ker, interior):
    """Upper bounds on ||U Vf|| (R_0), on it on the interior rows and columns, and on
    ||U Z|| (A_0 = I - U Z) from the Grams of the D-wide rows Vf and Z (_product_norm_upper).  U = [E_K, -V_:K] is
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


class _Commutator:
    """C = [P_d, W] = P_d W - W P_d, entries (P_i - P_j) W_ij, formed a block of rows at a
    time: norm2_upper and norm2_upper_abs read it as a dense array.  An entry is two
    roundings from the exact one, so norms of it are scaled by ROUND."""

    ROUND = 1 + gamma(2)
    ndim = 2

    def __init__(self, W, P_d):
        self.W, self.P_d = W, P_d
        self.shape, self.size = W.shape, W.size

    def __getitem__(self, sl):
        return self.W[sl] * (self.P_d[sl, None] - self.P_d)


class _TimesHat:
    """Bounds on ||X P_hat|| for P_hat = W^{-1} P_d, which is never formed.

    W^{-1} P_d = P_d W^{-1} + W^{-1} C W^{-1} with C = [P_d, W], and
    W^{-1} C = C + (W^{-1} - I) C, so

        ||X P_hat|| <= (||X P_d|| + ||X C|| + omega ||X|| ||C||) / lambda_lb

    with omega = max(1/lambda_lb - 1, 1 - 1/W_ub) >= ||W^{-1} - I|| (W is
    symmetric with its spectrum in [lambda_lb, W_ub]).  P_d and C stay
    inside the norms of X P_d and X C, whose scalings cancel near the
    diagonal where W is large; only the omega term meets ||C|| whole.
    """

    def __init__(self, weight, P_d):
        self.comm = _Commutator(weight.matrix, P_d)
        self.n_comm = _Commutator.ROUND * norm2_upper(self.comm)
        self.lam = weight.min_eigenvalue_bound
        self.omega = max(1 / self.lam - 1, 1 - 1 / weight.max_eigenvalue_bound)

    def __call__(self, x_pd, x, x_c=None):
        """>= ||X P_hat|| from x_pd >= ||X P_d||, x >= ||X|| and x_c >= ||X C|| (or x ||C||)."""
        if x_c is None:
            x_c = x * self.n_comm
        return (x_pd + x_c + self.omega * x * self.n_comm) / self.lam


def _g_column_norm(W, Pi_K, p, ker, P_d):
    """The largest computed ||G e_j|| over the columns j of the smallest nonzero P_d, where
    G is largest, G e_j = (I - Pi) P^+ W (I - Pi) e_j: one product of W with them."""
    C = ~ker
    J = np.flatnonzero(C & (P_d == P_d[C].min(initial=np.inf)))
    X = np.zeros((ker.size, J.size))
    X[J, np.arange(J.size)] = 1
    X[ker] = -Pi_K[:, J]
    Y = W @ X
    Y *= p[:, None]
    Y[ker] = -(Pi_K @ Y)
    return float(np.linalg.norm(Y, axis=0).max(initial=0.0))


def build_chain_matrix_dense(basis, weight):
    """The parametrix chain on the dense W: the members and bounds of
    crsphere.parametrix.build_chain_matrix, formed as that chain formed them
    before it left W out (see its docstring for the identities)."""
    n, N = basis.n, basis.N
    D = basis.total_dim
    interior = interior_mask(basis)
    ker = kernel_mask(basis)
    k = int(ker.sum())

    P_d = critical_gjms(basis).to_diag_vector(basis)
    p = pseudo_inverse_diag(P_d, ker)
    # c_max >= |P_d P^+ - 1_C| entrywise, and eta >= |x - 1| for x = p g (1 + d),
    # |d| <= u: the member G_0 = P^+ W, rounded, scaled by P_d
    c_max = scaling_defect(P_d, p)
    eta = c_max + gamma(2)

    # the LU of W first, while W and the arrays of |K| columns are all that is alive
    V_K, n_f = hatted_gjms_dense(basis, weight)
    lam_lb = weight.min_eigenvalue_bound
    e_v = n_f / lam_lb
    W = weight.matrix
    Pi_K = weight.projector_rows(ker)
    # Vf = [Pi0_K; W_K:], its blocks written in place: Pi0_K = 2 Re S_K: = 2 Re(C) W_K:
    Vf = np.empty((2 * k, D))
    Pi0_K, W_K = Vf[:k], Vf[k:]
    np.compress(ker, W, axis=0, out=W_K)
    C_S = szego_rows(basis, W_K)
    np.matmul(2 * C_S.real, W_K, out=Pi0_K)
    S_imag = np.ascontiguousarray(C_S.imag)  # Im S_K: = S_imag W_K:
    Z_2, solve_term = woodbury_a0_dense(Vf, Pi_K, V_K, ker)
    # the member A_0 formed a block of rows at a time from V_:K and Z
    a0_rounding = gamma(k + 2) * (norm2_upper(Pi_K) + norm2_upper_abs((V_K, Z_2)) + 1)
    n_uvf, n_uvf_int, n_uz = r0_a0_norms_dense(V_K, Vf, Pi_K, Z_2, ker, interior)
    W_cK = W_K.T  # W_:K, W symmetric
    W_KK = W_K[:, ker]

    n_w, n_pi = norm2_upper(W), norm2_upper(Pi_K)
    times_hat = _TimesHat(weight, P_d)
    comm, c_round = times_hat.comm, _Commutator.ROUND
    # r = W_K: - W_KK Pi_K: is the defect of Pi_K:; its norms, with r P_d and
    # r [P_d, W] for r as computed or as exact, before it is dropped
    r = W_KK @ Pi_K
    np.subtract(W_K, r, out=r)
    n_r = norm2_upper(r) + gamma(k + 1) * norm2_upper_abs((W_K,), (W_KK, Pi_K))
    n_rp = norm2_upper_abs((r, P_d)) + gamma(k + 1) * norm2_upper_abs(
        (W_K, P_d), (W_KK, Pi_K, P_d))
    n_rc = c_round * (norm2_upper_abs((r, comm)) + gamma(k + 1) * norm2_upper_abs(
        (W_K, comm), (W_KK, Pi_K, comm)))
    del r
    lam_min, lam_enclosure, group = low_eigenvalue_enclosure(
        P_d, weight, ker, Pi_K, n_pi, n_r * float(np.sqrt(p).max()) * (1 + gamma(3)),
        norm2_upper(W_K))

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

    # R_0 and A_0: ||R_0 - U Vf|| <= ||d|| ||W_K:|| + eta ||W|| / lambda_lb
    e_r0 = e_v * norm2_upper(W_K) + eta * n_w / lam_lb
    bound("R0", n_uvf + e_r0, n_uvf_int + e_r0)
    # A_0 as formed is within a0_rounding of I - U Z
    a0_residual = solve_term + e_r0 * (1 + n_uz + a0_rounding) + (1 + n_uvf) * a0_rounding
    diag.record("A0_residual", a0_residual, "factored")

    # the rows K of G, a block of them at a time:
    # G_K = -(Pi_K: P^+) B = -(Pi_K: P^+) W + ((Pi_K: P^+) W_:K) Pi_K:
    G_K = np.empty((k, D))
    for rows in eighth_blocks(k):
        Y, order = blocked_matmul(Pi_K[rows] * p, W)
        np.matmul(Y[:, ker], Pi_K, out=G_K[rows])
        G_K[rows] -= Y
    del Y
    members = {
        "S_imag": S_imag, "P_diag": P_d, "P_plus": p,
        "V_K": V_K, "W_K": W_K, "Pi0": Pi0_K, "Z2": Z_2, "Pi": Pi_K, "PiInf": PiInf_K,
        "G_K": G_K,
    }

    rec("PiInf_sq_minus_PiInf", PiInf_K[:, ker] @ PiInf_K - PiInf_K, ker)
    rec("Pi_minus_PiInf", Pi_K - PiInf_K, ker)
    structural("PPi_full")
    structural("PPi_interior")

    # the rows C of G are P^+ (W - W_:K Pi_K:) within gamma_{k+2} h,
    # h = P^+ (|W| + |W_:K| |Pi_K:|), and G_K within gamma_g |Pi_K:| h,
    # g = k + 3 + (the order of the product); Pi G = Pi_K: G =
    # (Pi_KK - I) G_K + (the rounding of G), formed within gamma_{k+1} of its terms.
    n_h, n_hp, n_hc = (norm2_upper_abs((p, W, *R), (p, W_cK, Pi_K, *R))
                       for R in ((), (P_d,), (comm,)))  # >= ||h||, ||h P_d||, ||h C||
    g_order = k + 3 + order
    Pi_KK = Pi_K[:, ker]
    # Pi G as formed, a block of columns at a time (its transpose has the same norm2_upper)
    n_pig = norm2_upper_blocks((D, k), lambda sl: (Pi_KK @ G_K[:, sl] - G_K[:, sl]).T)
    bound("PiG", n_pig + gamma(k + 1) * norm2_upper_abs((Pi_KK, G_K), (G_K,))
          + (gamma(g_order) + gamma(k + 2)) * norm2_upper_abs((Pi_K, p, W), (Pi_K, p, W_cK, Pi_K)))
    g_rows = gamma(k + 2) + gamma(g_order) * n_pi
    n_eg = g_rows * n_h  # >= ||e_G||
    diff = 1 + gamma(1)  # a computed difference against the exact one

    # P_hat G + Pi - I: ||B|| <= ||W|| + || |W_:K| |Pi_K:| ||, and P_d e_G is
    # within (1 + c_max) gamma_{k+2} (|W| + |W_:K| |Pi_K:|) on the rows C
    n_b = n_w + norm2_upper_abs((W_cK, Pi_K))
    b_pg = (n_vk + e_v) * n_r + (c_max + (1 + c_max) * gamma(k + 2)) * n_b / lam_lb
    bound("PG_plus_Pi_minus_I", b_pg)

    # G P_hat + Pi - I
    n_y = times_hat(n_rp, n_r, n_rc) / lam_lb  # >= ||W_KK^{-1} r P_hat||
    # g_rows n_hp >= ||e_G P_d|| and g_rows n_hc >= ||e_G C||
    b_gp = (n_r / lam_lb + (1 + n_pi) * (c_max + norm2_upper_abs((p, W_cK)) * n_y)
            + diff * times_hat(g_rows * n_hp, n_eg, c_round * g_rows * n_hc))
    bound("GP_plus_Pi_minus_I", b_gp)

    # G_oo - G from its factors (the members share the computed B): on the rows
    # C, P^+ F Z_2 with || |F| || <= n_f, P^+ E_K = 0, plus
    # the rounding of the scalings, within gamma_4 P^+ |B|, and of W V_:K Z_2
    # (blocked_matmul, then a product of order k), within
    # gamma_{o+k+4} P^+ |W| |V_:K| |Z_2|; each term bounds the absolute values
    # too.  On the rows K, formed as G_K - (PiInf_K: - Pi_K:) G - PiInf_K:
    # (G_oo - G), those two products, their rounding and that of
    # the subtractions from G_K, within gamma_3 |G_K| <= gamma_4 |Pi_K:| h
    n_piinf = norm2_upper(PiInf_K)
    pi_diff = diff * diag.entries["Pi_minus_PiInf_full"]

    def goo_minus_g(h_r, right=(), left=()):
        """>= ||L (G_oo - G) R|| for the members, L = left and R = right diagonals or [P_d, W],
        from h_r >= ||L h R||; left = (P_d,) drops the rows K, where P_d vanishes."""
        a = norm2_upper_abs
        g_max = float(np.max(p * left[0] if left else p)) * diff
        rows_c = (g_max * n_f * a((Z_2, *right))
                  + gamma(4) * h_r + gamma(order + k + 4) * a((*left, p, W, V_K, Z_2, *right)))
        if left:
            return rows_c
        return (rows_c + gamma(4) * n_pi * h_r
                + (1 + gamma(D + k + 5)) * (pi_diff * h_r + n_piinf * rows_c))

    n_diff = goo_minus_g(n_h)
    bound("G_minus_GInf", n_diff)
    n_pdiff = goo_minus_g(norm2_upper_abs((P_d, p, W), (P_d, p, W_cK, Pi_K)), left=(P_d,))
    bound("PGInf_plus_PiInf_minus_I", b_pg + pi_diff + n_pdiff / lam_lb)
    bound("R_inf", b_gp + pi_diff + times_hat(goo_minus_g(n_hp, (P_d,)), n_diff,
                                              c_round * goo_minus_g(n_hc, (comm,))))

    # lower norms: the computed columns of G less their rounding and that of the
    # member, each within gamma_{2D+g} (1 + |Pi_K:|) h e_j; ||G_oo|| >= ||G|| - ||G_oo - G||
    column = _g_column_norm(W, Pi_K, p, ker, P_d) * (1 - gamma(D + 2))
    lower_g = max(column - 2 * gamma(2 * D + g_order) * (1 + n_pi) * n_h, 0.0)
    lower_ginf = max(lower_g - n_diff, 0.0)

    # weighted adjointness defects ||X - W^{-1} X^T W|| / ||X|| <= ||W X - (W X)^T|| / (lambda_lb ||X||)
    kappa = weight.max_eigenvalue_bound / lam_lb
    n_delta = 2 * n_pi * n_r  # >= ||W Pi - Pi^T W||
    # W G - (W G)^T = -Delta P^+ B - B^T P^+ Delta for the exact G, B = W (I - Pi),
    # with ||P^+ B|| <= n_h, plus W e_G - (W e_G)^T for the rounding e_G of G
    g_skew = 2 * n_delta * n_h + 2 * n_w * n_eg
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
