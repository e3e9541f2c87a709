"""The members of a parametrix chain as full matrices: a test helper.

The matrix chain (crsphere.parametrix.build_chain_matrix) stores
diagonals, rows and factors of at most 2|K| rows or columns, and never W
or P_hat.  member(chain, name) forms a member whole, with W the dense
weight (weight.matrix): Pi and Pi_oo from their rows in K, S,
Sbar = conj(S) and Pi0 from Vf and S_imag, G0, R0, A0, G and GInf from
their factors, and P_hat = W^{-1} P_diag by a dense solve.  The diagonal
chain's members are returned as stored.
"""

import numpy as np

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

    With U = [E_K, -V_:K], Vf = [Pi0_K; W_K:] (W_K: the chain's computed
    rows K of W) and Z = [Pi_K:; Z_2]: G0 = P^+ W, R0 = U Vf, A0 = I - U Z,
    G = (I - Pi) P^+ (W - W_K:^T Pi_K:) and G_oo = (I - Pi_oo) G0 A0, where
    P^+ vanishes on K, so the rows K of (I - Pi) X are -Pi_K: X.
    """
    k = int(ker.sum())
    V_K, Vf = m["V_K"], m["Vf"]
    if name == "G0":
        return m["P_plus"][:, None] * W
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
    if name == "G":
        X = m["P_plus"][:, None] * (W - Vf[k:].T @ m["Pi"])
        rows = m["Pi"]
    else:
        X = m["P_plus"][:, None] * (W @ _expand(m, W, ker, "A0"))
        rows = m["PiInf"]
    X[ker] = -(rows @ X)
    return X
