"""The members of a parametrix chain as full matrices: a test helper.

The matrix chain (crsphere.parametrix.build_chain_matrix) stores
diagonals, the three |K| x D arrays W_K:, Pi_K: and V_:K, and every other
member of |K| rows as a coefficient on [W_K:; Pi_K:] (Z2, PiInf: |K| x 2|K|)
or on W_K: alone (Pi0: |K| x |K|); it never stores W or P_hat.  rows(chain, name) expands such
a member to its rows K (the dense oracle, tests/dense_chain.py, stores them
as rows of D columns), and member(chain, name) forms a member whole, with W
the dense weight (weight.matrix): Pi and Pi_oo from their rows in K, S,
Sbar = conj(S) and Pi0 from the rows of Pi0 and S_imag, G0, R0, A0, G and
GInf from their factors, and P_hat = W^{-1} P_diag by a dense solve.  The
diagonal chain's members are returned as stored.
"""

import numpy as np

from crsphere.parametrix import kernel_mask

# members the matrix chain stores as their rows in K (S, Sbar from Pi0 and S_imag)
ROW_MEMBERS = ("S", "Sbar", "Pi0", "Pi", "PiInf")
# members the matrix chain keeps as factors
FACTORED_MEMBERS = ("G0", "R0", "A0", "G", "GInf")


def rows(chain, name, dtype=np.float64):
    """The rows K of a member of |K| rows (W_K, Pi, Pi0, Z2, PiInf), or of Vf = [Pi0_K; W_K:],
    formed in dtype."""
    m = chain.members
    if name == "Vf":
        return np.concatenate([rows(chain, "Pi0", dtype), m["W_K"].astype(dtype)])
    X, k = m[name].astype(dtype), len(m["Pi"])
    if X.shape[1] == chain.basis.total_dim:  # rows as stored
        return X
    W_K = m["W_K"].astype(dtype)
    if X.shape[1] == k:  # Pi0: a coefficient on W_K: alone
        return X @ W_K
    return X[:, :k] @ W_K + X[:, k:] @ m["Pi"].astype(dtype)


def member(chain, name):
    """The member name of chain, as a full matrix for the matrix chain."""
    if chain.mode != "matrix" or name not in ROW_MEMBERS + FACTORED_MEMBERS + ("P_hat",):
        return chain.member(name)
    if name == "P_hat":
        return chain.weight.solve(np.diag(chain.members["P_diag"]))
    ker = kernel_mask(chain.basis)
    if name in FACTORED_MEMBERS:
        return _expand(chain, chain.weight.matrix, ker, name)
    X_K = rows(chain, "Pi0" if name in ("S", "Sbar") else name)
    if name in ("S", "Sbar"):
        im = chain.members["S_imag"] @ chain.members["W_K"]
        X_K = 0.5 * X_K + 1j * (im if name == "S" else -im)
    X = np.zeros((ker.size, X_K.shape[1]), dtype=X_K.dtype)
    X[ker] = X_K
    return X


def _expand(chain, W, ker, name):
    """A factored member of the matrix chain as a full matrix.

    With U = [E_K, -V_:K], Vf = [Pi0_K; W_K:] (W_K: the chain's computed
    rows K of W) and Z = [Pi_K:; Z_2]: G0 = P^+ W, R0 = U Vf, A0 = I - U Z,
    G = (I - Pi) P^+ (W - W_K:^T Pi_K:) and G_oo = (I - Pi_oo) G0 A0, where
    P^+ vanishes on K, so the rows K of (I - Pi) X are -Pi_K: X.
    """
    m = chain.members
    V_K = m["V_K"]
    if name == "G0":
        return m["P_plus"][:, None] * W
    if name == "R0":
        X = V_K @ m["W_K"]
        np.negative(X, out=X)
        X[ker] += rows(chain, "Pi0")
        return X
    if name == "A0":
        X = V_K @ rows(chain, "Z2")
        X[ker] -= m["Pi"]
        X.flat[:: X.shape[0] + 1] += 1
        return X
    if name == "G":
        X = m["P_plus"][:, None] * (W - m["W_K"].T @ m["Pi"])
        Pi_K = m["Pi"]
    else:
        X = m["P_plus"][:, None] * (W @ _expand(chain, W, ker, "A0"))
        Pi_K = rows(chain, "PiInf")
    X[ker] = -(Pi_K @ X)
    return X
