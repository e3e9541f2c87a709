"""The members of a parametrix chain as full matrices: a test helper.

The matrix chain (crsphere.parametrix.build_chain_matrix) stores W,
diagonals, rows and factors of at most 2|K| rows or columns, and never
P_hat.  member(chain, name) forms a member whole: Pi and Pi_oo from their
rows in K, S, Sbar = conj(S) and Pi0 from Vf and S_imag, G0, R0, A0, G
and GInf from their factors (W V_:K and the rows K of G_oo included), and
P_hat = W^{-1} P_diag by a dense solve.  The diagonal chain's members are
returned as stored.
"""

import numpy as np

from crsphere.galerkin import blocked_matmul
from crsphere.parametrix import kernel_mask

# members the matrix chain stores as their rows in K (S, Sbar and Pi0 from Vf and S_imag)
ROW_MEMBERS = ("S", "Sbar", "Pi0", "Pi", "PiInf")
# members the matrix chain keeps as factors
FACTORED_MEMBERS = ("G0", "R0", "A0", "G", "GInf")


def member(chain, name):
    """The member name of chain, as a full matrix for the matrix chain."""
    if chain.mode != "matrix" or name not in ROW_MEMBERS + FACTORED_MEMBERS + ("P_hat",):
        return chain.member(name)
    if name == "P_hat":
        return chain.weight.solve(np.diag(chain.members["P_diag"]))
    ker = kernel_mask(chain.basis)
    if name in FACTORED_MEMBERS:
        return _expand(chain.members, chain.weight.matrix, ker, name)
    if name in ("Pi", "PiInf"):
        rows = chain.members[name]
    else:
        rows, W_K = np.split(chain.members["Vf"], 2)
        if name != "Pi0":
            im = chain.members["S_imag"] @ W_K
            rows = 0.5 * rows + 1j * (im if name == "S" else -im)
    X = np.zeros((ker.size, rows.shape[1]), dtype=rows.dtype)
    X[ker] = rows
    return X


def _expand(m, W, ker, name):
    """A factored member of the matrix chain as a full matrix.

    With U = [E_K, -V_:K], Vf = [Pi0_K; W_K:], Z = [Pi_K:; Z_2] and
    B = W - W_:K Pi_K:, G0 = G0_d W, R0 = U Vf, A0 = I - U Z, and on the
    rows C, G = P^+ B and G_oo = G0_d (B + W V_:K Z_2) (G0_d and P^+ vanish
    on K).  The rows K of G are the stored G_K = -Pi_K: P^+ B, and those of
    G_oo are G_K - (PiInf_K: - Pi_K:) G - PiInf_K: (G_oo - G): since
    G_K + Pi_K: G is the rounding of G, that is -PiInf_K: G_oo up to it, as
    in G_oo = (I - Pi_oo) G_0 A_0, and G_oo - G is a sum of products of
    small factors (build_chain_matrix bounds it).
    """
    k = int(ker.sum())
    V_K, Vf = m["V_K"], m["Vf"]
    if name == "G0":
        return m["G0_diag"][:, None] * W
    if name == "R0":
        X = V_K @ Vf[k:]
        np.negative(X, out=X)
        X[ker] += Vf[:k]
        return X
    if name == "A0":
        X = V_K @ m["Z2"]
        X[ker] -= m["Pi"]
        X.flat[:: X.shape[0] + 1] += 1
        return X
    B = W - Vf[k:].T @ m["Pi"]
    G = m["P_plus"][:, None] * B
    if name == "G":
        G[ker] = m["G_K"]
        return G
    B += blocked_matmul(W, V_K)[0] @ m["Z2"]
    B *= m["G0_diag"][:, None]
    PiInf = m["PiInf"]
    B[ker] = m["G_K"] - (PiInf - m["Pi"]) @ G - PiInf @ (B - G)
    return B
