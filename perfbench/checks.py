"""Correctness checks on crsphere outputs, computed apart from the program.

Nothing here imports crsphere or numpy: the dimensions, the eigenvalue
table of P, the sphere integral of monomials and the ambient Laplacian are
written out again from their closed forms, so a fault in the program cannot
also hide in its check.  Every check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from fractions import Fraction

# gates of the acceptance criteria the workloads rest on
P_DRIFT_TOL = 1e-7  # criterion 7: ||P (Upsilon + Upsilon_sol)||
INTERIOR_TOL = 1e-8  # criterion 5: PG + Pi - I on the interior blocks
ADJOINT_TOL = 1e-10  # criterion 5: weighted adjointness defects
ADJOINT_KEYS = ("P_hat_adjoint_defect", "G_adjoint_defect", "Pi_adjoint_defect",
                "ran_orthogonality_defect")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def dim_hpq(n, p, q):
    """dim H_{p,q} on S^{2n+1} = C(p+n-1, p) C(q+n-1, q) (p+q+n) / n."""
    num = math.comb(p + n - 1, p) * math.comb(q + n - 1, q) * (p + q + n)
    if num % n:
        raise ValueError(f"non-integral dimension for n={n} ({p},{q})")
    return num // n


def blocks(n, N):
    """Every bidegree (p, q) with p + q <= N."""
    return [(p, d - p) for d in range(N + 1) for p in range(d + 1)]


def p_eigenvalue(n, p, q):
    """Eigenvalue of the critical GJMS operator on H_{p,q}."""
    out = 1
    for k in range(n + 1):
        out *= 2 * p * q + n * (p + q) + (n - 2 * k) * (q - p)
    return out


def kernel_dim(n, N):
    """Number of pluriharmonic basis functions (p q = 0) up to degree N."""
    return sum(dim_hpq(n, p, q) for p, q in blocks(n, N) if p * q == 0)


def sup_bound(n, terms):
    """sum |c| sqrt(dim H_pq): a true bound on sup |Upsilon| (mass-one sphere)."""
    return sum(abs(c) * math.sqrt(dim_hpq(n, p, q)) for p, q, _, c in terms)


# ---------------------------------------------------------------------------
# exact sphere integrals on Gaussian-rational polynomials
# ---------------------------------------------------------------------------

_GAUSS = re.compile(r"^(?P<re>[+-]?\d+(?:/\d+)?)?(?:(?P<sign>[+-])?(?P<im>\d+(?:/\d+)?)?i)?$")


def parse_gauss(text):
    """'a/b+c/di', 'c/di', '-i' or 'a/b' as a (Fraction, Fraction) pair."""
    m = _GAUSS.match(text.replace(" ", ""))
    if not m or not text:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    if not text.endswith("i"):
        return Fraction(m.group("re")), Fraction(0)
    mag = Fraction(m.group("im")) if m.group("im") else Fraction(1)
    if m.group("sign") is None:  # the whole string is imaginary, as in "-3i"
        lead = m.group("re")
        if lead is not None:
            mag = Fraction(lead)
        return Fraction(0), mag
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    return re_part, mag if m.group("sign") == "+" else -mag


def poly_terms(poly_json):
    """{(z exponents, zbar exponents): (re, im)} of a cached basis polynomial."""
    out = {}
    for term in poly_json["terms"]:
        if term["t"]:
            raise ValueError("sphere polynomial with a t exponent")
        out[(tuple(term["z"]), tuple(term["zbar"]))] = parse_gauss(term["coeff"])
    return out


def monomial_integral(n, exps):
    """Average of |z^A|^2 over S^{2n+1}: n! A! / (n + |A|)!."""
    num = math.factorial(n)
    for e in exps:
        num *= math.factorial(e)
    return Fraction(num, math.factorial(n + sum(exps)))


def inner(n, f, g):
    """Exact <f, g> = int f conj(g) dsigma as a (re, im) pair of Fractions.

    z^A zbar^B conj(z^A' zbar^B') = z^(A+B') zbar^(B+A') integrates to a
    nonzero value only when A - B = A' - B'.
    """
    by_sector = {}
    for (a2, b2), c2 in g.items():
        by_sector.setdefault(tuple(x - y for x, y in zip(a2, b2)), []).append((a2, b2, c2))
    re_sum = im_sum = Fraction(0)
    for (a, b), (cr, ci) in f.items():
        for a2, b2, (dr, di) in by_sector.get(tuple(x - y for x, y in zip(a, b)), ()):
            w = monomial_integral(n, tuple(x + y for x, y in zip(a, b2)))
            # (cr + i ci) * conj(dr + i di)
            re_sum += w * (cr * dr + ci * di)
            im_sum += w * (ci * dr - cr * di)
    return re_sum, im_sum


def ambient_laplacian(f):
    """sum_j d^2 / dz_j dzbar_j, on the same term dictionary."""
    out = {}
    for (a, b), (cr, ci) in f.items():
        for j in range(len(a)):
            if a[j] and b[j]:
                k = a[j] * b[j]
                a2 = a[:j] + (a[j] - 1,) + a[j + 1:]
                b2 = b[:j] + (b[j] - 1,) + b[j + 1:]
                r, i = out.get((a2, b2), (0, 0))
                out[(a2, b2)] = (r + k * cr, i + k * ci)
    return {key: v for key, v in out.items() if v != (0, 0)}


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _read_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return None


def check_qsolve(n, N, terms, out_dir):
    """qcurv solve: solvable, and Upsilon + Upsilon_sol lies in Ker P.

    terms are the (p, q, index, complex coefficient) the benchmark wrote;
    they are already real (conjugate pairs), so the program's Upsilon is
    exactly their sum.
    """
    problems = []
    report = _read_json(os.path.join(out_dir, "qcurv_solve.json"), problems)
    if report is None:
        return problems
    if report.get("solvable") is not True:
        problems.append("solvable is not true")
    total = {}
    for p, q, i, c in terms:
        total[(p, q, i)] = total.get((p, q, i), 0j) + c
    try:
        with open(os.path.join(out_dir, "upsilon_sol.csv")) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return problems + [f"cannot read upsilon_sol.csv: {exc}"]
    if not rows:
        problems.append("upsilon_sol.csv is empty")
    for row in rows:
        key = (int(row["p"]), int(row["q"]), int(row["index"]))
        if key[0] + key[1] > N or not 0 <= key[2] < dim_hpq(n, key[0], key[1]):
            problems.append(f"upsilon_sol.csv names a coefficient outside the basis: {key}")
            continue
        total[key] = total.get(key, 0j) + complex(float(row["re"]), float(row["im"]))
    drift = math.sqrt(sum(abs(p_eigenvalue(n, p, q) * c) ** 2
                          for (p, q, _), c in total.items()))
    if not drift <= P_DRIFT_TOL:
        problems.append(f"P-drift {drift:.3e} > {P_DRIFT_TOL:g}")
    return problems


def check_chain(n, N, sup, out_dir):
    """parametrix-check: kernel, spectral gap, exact diagonal chain, criterion-5 gates."""
    problems = []
    diag = _read_json(os.path.join(out_dir, "parametrix_diagonal.json"), problems)
    mat = _read_json(os.path.join(out_dir, "parametrix_matrix.json"), problems)
    if diag is None or mat is None:
        return problems
    nonzero = [k for k, v in diag.items()
               if k.endswith("_sup") and k != "R0_sup" and v != "0"]
    if nonzero:
        problems.append(f"diagonal residuals not exactly zero: {sorted(nonzero)}")
    if not any(k.endswith("_sup") for k in diag):
        problems.append("diagonal chain reports no residuals")
    want = kernel_dim(n, N)
    if mat.get("kernel_dim") != want:
        problems.append(f"kernel_dim {mat.get('kernel_dim')} != {want} pluriharmonic functions")
    # min-max for the pencil (P, W) with e^{-(n+1)s} <= W <= e^{(n+1)s}
    lam = min(p_eigenvalue(n, p, q) for p, q in blocks(n, N) if p * q)
    lo, hi = lam * math.exp(-(n + 1) * sup), lam * math.exp((n + 1) * sup)
    got = mat.get("min_nonzero_abs_eigenvalue")
    if not isinstance(got, (int, float)) or not lo <= got <= hi:
        problems.append(f"min_nonzero_abs_eigenvalue {got} outside [{lo:.6g}, {hi:.6g}]")
    value = mat.get("PG_plus_Pi_minus_I_interior")
    if not isinstance(value, (int, float)) or not value <= INTERIOR_TOL:
        problems.append(f"PG_plus_Pi_minus_I_interior {value} > {INTERIOR_TOL:g}")
    for key in ADJOINT_KEYS:
        value = mat.get(key)
        if not isinstance(value, (int, float)) or not value <= ADJOINT_TOL:
            problems.append(f"{key} {value} > {ADJOINT_TOL:g}")
    return problems


def check_basis_cache(n, N, cache_path, report_path, rng):
    """Cached exact basis: block dimensions, exact orthogonality and norms, harmonicity.

    rng picks, in every block, one pair of distinct elements for the
    orthogonality check and one element for the norm and Laplacian checks.
    """
    problems = []
    cache = _read_json(cache_path, problems)
    report = _read_json(report_path, problems)
    if cache is None or report is None:
        return problems
    if (cache.get("n"), cache.get("N")) != (n, N):
        problems.append(f"cache is for n={cache.get('n')} N={cache.get('N')}")
    got = {(b["p"], b["q"]): b["elements"] for b in cache.get("blocks", [])}
    reported = {(b["p"], b["q"]): b["dim"] for b in report.get("blocks", [])}
    for p, q in blocks(n, N):
        want = dim_hpq(n, p, q)
        els = got.get((p, q))
        if els is None or len(els) != want or reported.get((p, q)) != want:
            problems.append(f"block ({p},{q}) dimension "
                            f"{None if els is None else len(els)}/{reported.get((p, q))} != {want}")
            continue
        polys = [poly_terms(el["poly"]) for el in els]
        k = rng.randrange(want)
        if inner(n, polys[k], polys[k]) != (Fraction(els[k]["norm2"]), 0):
            problems.append(f"block ({p},{q}) element {k}: stored norm2 is not exact")
        if ambient_laplacian(polys[k]):
            problems.append(f"block ({p},{q}) element {k} is not ambient-harmonic")
        if want > 1:
            i, j = rng.sample(range(want), 2)
            if inner(n, polys[i], polys[j]) != (0, 0):
                problems.append(f"block ({p},{q}) elements {i},{j} are not orthogonal")
    if len(got) != len(blocks(n, N)):
        problems.append(f"cache holds {len(got)} blocks, expected {len(blocks(n, N))}")
    return problems


def check_selftest(out_dir, sweep):
    """heisenberg-selftest: a record for every n of the sweep, every identity passed."""
    problems = []
    report = _read_json(os.path.join(out_dir, "heisenberg_selftest.json"), problems)
    if report is None:
        return problems
    runs = report.get("runs", [])
    if [r.get("n") for r in runs] != list(sweep):
        problems.append(f"self-test ran n={[r.get('n') for r in runs]}, expected {list(sweep)}")
    for r in runs:
        failed = [i["name"] for i in r.get("identities", []) if i.get("passed") is not True]
        if failed or not r.get("identities"):
            problems.append(f"n={r.get('n')}: identities failed {failed or 'none recorded'}")
    if report.get("passed") is not True:
        problems.append("self-test did not pass overall")
    return problems


def seeded_rng(seed, *labels):
    """Independent deterministic stream for one (seed, label...) combination."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))
