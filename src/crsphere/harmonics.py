"""Bigraded spherical harmonics on S^{2n+1} with exact arithmetic.

Functions are ambient polynomials in z_1..z_{n+1}, zbar_1..zbar_{n+1}
restricted to the unit sphere (m = n + 1 complex variables; no t variable).
The normalized surface measure integrates monomials exactly:

    int z^A zbar^B dsigma = delta_AB * n! A! / (n + |A|)!

H_{p,q} is the space of ambient-harmonic polynomials of bidegree (p, q);
its restriction blocks give the joint eigenspaces of the sphere operators.
Blocks are built as the exact nullspace of the ambient Laplacian
sum_j d^2/dz_j dzbar_j on bidegree-(p, q) monomials, then orthogonalized by
classical Gram-Schmidt (exact arithmetic makes the classical variant fine).
One Gauss-Jordan routine does all row reduction: the nullspace, and the
choice of independent real candidates in the diagonal blocks.

inner_sphere is the one exact pairing (poly.matched_pairing) with the
monomial weight above: only terms of equal sector beta - gamma meet, so no
product polynomial is formed.  galerkin.pairing_matrix evaluates the same
rule vectorized in floats over whole monomial index sets; it stays separate
so that the shared exact code does not branch on its caller.

Gram-Schmidt rests on the projection identity <u, w_j> = <v, w_j>: the
finished elements w_j are orthogonal, so subtracting the earlier
projections from a candidate v does not change its pairing with w_j.  Each
coefficient pairs the sparse raw candidate through w_j's pairing
functional (poly.PairingFunctional: monomial key -> sum conj(c2) weight
over w_j's terms in the key's sector, memoized), which all later candidates
of the block share.  The functionals are dropped with their block.

Basis elements are stored unnormalized with their exact squared norm; the
normalized element is poly / sqrt(norm2).  Coefficients stay Gaussian
rational: blocks with p > q are rational, the mirror blocks are their
conjugates, and the diagonal blocks p = q are built from real-valued
combinations so that conjugation fixes the chosen basis elementwise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .defaults import BASIS_CAP
from .errors import CapExceededError, ConfigError
from .poly import PairingFunctional, Poly, accumulate, matched_pairing, sectors
from .scalars import QI

BASIS_CACHE_VERSION = 1


# ---------------------------------------------------------------------------
# exact sphere integrals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _integral_equal_exponents(n: int, exps: tuple) -> Fraction:
    total = sum(exps)
    num = math.factorial(n)
    for e in exps:
        num *= math.factorial(e)
    return Fraction(num, math.factorial(n + total))


def inner_sphere(f: Poly, g: Poly, n: int):
    """L2(dsigma) inner product <f, g> = int f conj(g).

    The one exponent-matched pairing (poly.matched_pairing) with the sphere
    monomial weight; equal to the integral of f * g.conj_fn() without
    forming the product.  Like that integral it refuses a t term, which
    the product of two nonzero polynomials keeps whenever either has one.
    """
    if f.terms and g.terms and any(a for h in (f, g) for (a, _, _) in h.terms):
        raise ValueError("sphere integrand must be t-free")
    return matched_pairing(f, g, _sphere_weight(n))


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------


def monomials_homogeneous(m: int, d: int):
    """Sorted exponent tuples of total degree d in m variables."""
    if m == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_homogeneous(m - 1, d - first):
            out.append((first,) + rest)
    return sorted(out)


def dim_hpq(n: int, p: int, q: int) -> int:
    """dim H_{p,q} on S^{2n+1}: binom(p+n-1,p) binom(q+n-1,q) (p+q+n)/n."""
    val = Fraction(math.comb(p + n - 1, p) * math.comb(q + n - 1, q) * (p + q + n), n)
    assert val.denominator == 1
    return int(val)


def _gauss_jordan(rows, ncols, max_rank=None):
    """Reduce a dense Fraction matrix (a list of rows) in place; return its pivot columns.

    The pivot columns are the columns independent of all earlier ones, in
    order.  With max_rank the reduction stops once that many are found.
    """
    nrows = len(rows)
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows or r == max_rank:
            break
        pivot = None
        for rr in range(r, nrows):
            if rows[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c] != 0:
                factor = rows[rr][c]
                rows[rr] = [x - factor * y if y else x for x, y in zip(rows[rr], rows[r])]
        pivot_cols.append(c)
    return pivot_cols


def harmonic_block_polys(n: int, p: int, q: int):
    """Rational basis of harmonic bidegree-(p, q) polynomials (unorthogonalized)."""
    m = n + 1
    src = [(b, g) for b in monomials_homogeneous(m, p) for g in monomials_homogeneous(m, q)]
    if p == 0 or q == 0:
        # the Laplacian target is empty; every monomial is harmonic
        return [Poly.monomial(m, 0, b, g) for (b, g) in src]
    tgt = [(b, g) for b in monomials_homogeneous(m, p - 1) for g in monomials_homogeneous(m, q - 1)]
    tgt_index = {key: i for i, key in enumerate(tgt)}
    matrix = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
    for col, (b, g) in enumerate(src):
        for j in range(m):
            if b[j] and g[j]:
                nb = list(b)
                ng = list(g)
                nb[j] -= 1
                ng[j] -= 1
                row = tgt_index[(tuple(nb), tuple(ng))]
                matrix[row][col] += Fraction(b[j] * g[j])
    # one nullspace vector per free column: 1 there, -rref[i][col] at pivot i
    pivot_cols = _gauss_jordan(matrix, len(src))
    polys = []
    for col in range(len(src)):
        if col in pivot_cols:
            continue
        vec = {col: Fraction(1)}
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[i][col]
        polys.append(Poly(m, {(0, *src[k]): QI(c) for k, c in sorted(vec.items())}))
    return polys


def _real_valued_block_basis(polys):
    """Rebase a conjugation-stable block (p = q) on real-valued functions.

    Each rational v splits into the real functions (v + sigma v)/2 and
    (v - sigma v)/(2i) where sigma is function conjugation.  The combined
    family spans the block; exact row reduction picks an independent subset.
    """
    candidates = []
    for v in polys:
        sv = v.conj_fn()  # rational coefficients: conjugation only swaps z and zbar
        sym = (v + sv).scale(QI(Fraction(1, 2)))
        anti = (v - sv).scale(QI(0, Fraction(-1, 2)))
        for cand in (sym, anti):
            if not cand.is_zero():
                candidates.append(cand)
    # independence over Q: coefficients are rational or purely imaginary
    # rational.  Keeping the first independent candidates keeps exactly the
    # pivot columns of the matrix whose columns are the candidates.
    keys = sorted({k for cand in candidates for k in cand.terms})
    key_index = {k: i for i, k in enumerate(keys)}
    matrix = [[Fraction(0)] * len(candidates) for _ in keys]
    for col, cand in enumerate(candidates):
        for k, c in cand.terms.items():
            matrix[key_index[k]][col] = c.re or c.im
    pivots = _gauss_jordan(matrix, len(candidates), max_rank=len(polys))
    if len(pivots) != len(polys):
        raise ConfigError("real rebasing of a diagonal block failed to span")
    return [candidates[col] for col in pivots]


def _sphere_weight(n):
    return lambda a, exps: _integral_equal_exponents(n, exps)


def gram_schmidt_exact(polys, n):
    """Classical Gram-Schmidt; returns (orthogonal poly, exact squared norm) pairs.

    The finished w_j are orthogonal, so the running u_k = v - sum_{i<k} c_i w_i
    has <u_k, w_j> = <v, w_j> for every k <= j: each coefficient
    c_j = <v, w_j> / |w_j|^2 pairs the sparse raw candidate v, not the dense
    growing u.  The pairing goes through w_j's PairingFunctional, whose
    values at the block's monomials are memoized and shared by all later
    candidates; a pair whose sectors are disjoint pairs to zero and is
    skipped unevaluated (most pairs: the raw candidates mostly sit in
    distinct sectors).  Exact arithmetic gives the same u as pairing u
    itself; the subtractions keep the same order, so u's terms do too.  The
    functionals live only for the block.
    """
    weight = _sphere_weight(n)
    out = []
    functionals = []
    for v in polys:
        terms = dict(v.terms)
        v_sectors = sectors(v)
        for (w, w_norm2), phi in zip(out, functionals):
            if v_sectors.isdisjoint(phi.sectors):
                continue
            coeff = phi(v) / w_norm2
            if coeff:
                neg = -coeff
                for key, c in w.terms.items():
                    accumulate(terms, key, c * neg)
        u = Poly(v.m, terms)
        norm2 = inner_sphere(u, u, n)
        assert norm2.im == 0 and norm2.re > 0
        out.append((u, norm2.re))
        functionals.append(PairingFunctional(u, weight))
    return out


@dataclass
class BasisElement:
    poly: Poly
    norm2: Fraction


class HarmonicBasis:
    """Orthogonal bases of every H_{p,q}, p + q <= N, with exact Gram data."""

    def __init__(self, n, N, blocks):
        self.n = n
        self.N = N
        self.blocks = blocks
        self.block_order = sorted(blocks, key=lambda pq: (pq[0] + pq[1], pq[0]))
        self.offsets = {}
        off = 0
        for key in self.block_order:
            self.offsets[key] = off
            off += len(blocks[key])
        self.total_dim = off

    @property
    def m(self):
        return self.n + 1

    def global_index(self, p, q, i):
        return self.offsets[(p, q)] + i

    def index_blocks(self):
        """Yield (p, q, i, global_index) over the whole truncation."""
        for (p, q) in self.block_order:
            off = self.offsets[(p, q)]
            for i in range(len(self.blocks[(p, q)])):
                yield p, q, i, off + i

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, n, N, cap=BASIS_CAP):
        if n < 1 or N < 0:
            raise ConfigError("need n >= 1 and N >= 0")
        total = sum(dim_hpq(n, p, q) for d in range(N + 1) for p in range(d + 1) for q in [d - p])
        if total > cap:
            raise CapExceededError(f"truncated basis dimension {total} exceeds cap {cap}")
        blocks = {}
        for d in range(N + 1):
            for p in range(d, (d - 1) // 2, -1):
                q = d - p
                raw = harmonic_block_polys(n, p, q)
                if len(raw) != dim_hpq(n, p, q):
                    raise ConfigError(f"block ({p},{q}) dimension {len(raw)} != formula")
                if p == q:
                    raw = _real_valued_block_basis(raw)
                ortho = gram_schmidt_exact(raw, n)
                blocks[(p, q)] = [BasisElement(u, n2) for u, n2 in ortho]
                if p != q:
                    blocks[(q, p)] = [
                        BasisElement(el.poly.conj_fn(), el.norm2) for el in blocks[(p, q)]
                    ]
        return cls(n, N, blocks)

    def restrict(self, N):
        """The truncation at a smaller degree, sharing block data."""
        if N > self.N:
            raise ConfigError("restrict only lowers the truncation degree")
        return HarmonicBasis(
            self.n, N, {pq: els for pq, els in self.blocks.items() if pq[0] + pq[1] <= N}
        )

    # -- cache ----------------------------------------------------------------

    @staticmethod
    def cache_filename(n, N):
        return f"basis_n{n}_N{N}_v{BASIS_CACHE_VERSION}_exact.json"

    def save(self, cache_dir):
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, self.cache_filename(self.n, self.N))
        payload = {
            "version": BASIS_CACHE_VERSION,
            "n": self.n,
            "N": self.N,
            "blocks": [
                {
                    "p": p,
                    "q": q,
                    "elements": [
                        {"poly": el.poly.to_jsonable(), "norm2": str(el.norm2)}
                        for el in self.blocks[(p, q)]
                    ],
                }
                for (p, q) in self.block_order
            ],
        }
        with open(path, "w") as fh:
            # dumps runs the C encoder, which dump never does; the bytes are the same
            fh.write(json.dumps(payload, sort_keys=True))
        return path

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != BASIS_CACHE_VERSION:
            raise ConfigError("basis cache version mismatch")
        blocks = {}
        coeffs = {}  # QI is immutable: equal coefficients share one instance
        for blk in payload["blocks"]:
            blocks[(blk["p"], blk["q"])] = [
                BasisElement(Poly.from_jsonable(el["poly"], coeffs), Fraction(el["norm2"]))
                for el in blk["elements"]
            ]
        return cls(payload["n"], payload["N"], blocks)

    @classmethod
    def load_or_build(cls, n, N, cache_dir=None, cap=BASIS_CAP):
        """Build with disk cache; returns (basis, cache_hit)."""
        if cache_dir:
            path = os.path.join(cache_dir, cls.cache_filename(n, N))
            if os.path.exists(path):
                return cls.load(path), True
        basis = cls.build(n, N, cap=cap)
        if cache_dir:
            basis.save(cache_dir)
        return basis, False
