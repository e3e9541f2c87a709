"""The three benchmark workloads: their inputs, their operations and their checks.

An operation is a list of crsphere command lines run one after the other,
each in its own process, exactly as a user would type them.  Every
operation of a workload runs the same commands on inputs of the same shape,
so a run's median is the median of like operations.
"""

from __future__ import annotations

import glob
import json
import os

import checks

N1_DEGREE = 12
QSOLVE_SUP = 0.05  # criterion 6/7 perturbation size
CHAIN_SUP = 0.1  # criterion 5 perturbation size
# bidegrees of every draw: one non-pluriharmonic real term, one degree-3
# conjugate pair (so the multiplier context always has degree 3) and two
# pluriharmonic pairs
DRAW_SHAPE = ((1, 1), (2, 1), (1, 0), (2, 0))
# small enough that several operations fit in one run, so the run's median
# settles (n=2 N=7, n=3 N=5 and the sweep 1..3 take ~13 s, one per run)
EXACT_BASES = ((2, 5), (3, 4))
SELFTEST_SWEEP = (1, 2)


def draw_upsilon(rng, n, target_sup):
    """Seeded real Upsilon: (p, q, index, coeff) terms with sup bound target_sup.

    Terms with p != q come with their conjugate (q, p, index, conj coeff), so
    the function is real and the program's symmetrization leaves it as is.
    """
    terms = []
    for p, q in DRAW_SHAPE:
        i = rng.randrange(checks.dim_hpq(n, p, q))
        c = complex(rng.uniform(-1, 1), 0.0 if p == q else rng.uniform(-1, 1))
        terms.append((p, q, i, c))
        if p != q:
            terms.append((q, p, i, c.conjugate()))
    # a hair under the target so rounding cannot push the bound over it
    scale = target_sup * (1 - 1e-9) / checks.sup_bound(n, terms)
    return [(p, q, i, c * scale) for p, q, i, c in terms]


def write_perturbation(path, terms, label):
    payload = {
        "label": label,
        "epsilon": 1.0,
        "terms": [{"p": p, "q": q, "index": i, "coeff": [c.real, c.imag]}
                  for p, q, i, c in terms],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


class Workload:
    """Base: subclasses define op_inputs(), commands() and check(), and
    prepare() when operations need a warm cache."""

    name = ""
    warmups = 3  # untimed warm-up operations; setup_s counts their median

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = work_dir
        self.cache = os.path.join(work_dir, "cache")

    def prepare(self):
        """Set-up commands run once, before the warm-up operations."""
        return []

    def op_inputs(self, index):
        """Write the inputs of operation `index`; returns what check() needs."""
        raise NotImplementedError

    def commands(self, index, out_dir, inputs):
        raise NotImplementedError

    def check(self, index, inputs, out_dir):
        raise NotImplementedError


class _PerturbedN1(Workload):
    """Shared by the two n=1 N=12 workloads: a warm basis cache, seeded draws."""

    target_sup = 0.0

    def prepare(self):
        return [["basis", "--n", "1", "--degree", str(N1_DEGREE), "--cache", self.cache,
                 "--out", os.path.join(self.work, "prepare_basis")]]

    def op_inputs(self, index):
        rng = checks.seeded_rng(self.seed, self.name, index)
        terms = draw_upsilon(rng, 1, self.target_sup)
        path = os.path.join(self.work, f"upsilon_{index}.json")
        write_perturbation(path, terms, f"perfbench-{self.seed}-{index}")
        return path, terms

    def _common(self, inputs, out_dir):
        return ["--n", "1", "--degree", str(N1_DEGREE), "--cache", self.cache,
                "--perturbation", inputs[0], "--out", out_dir]


class QSolve(_PerturbedN1):
    """The zero-Q solve, the paper's application: weight, generalized
    eigensolve and full-degree Galerkin context; no chain, no exact build."""

    name = "qsolve_n1_N12"
    target_sup = QSOLVE_SUP

    def commands(self, index, out_dir, inputs):
        return [["qcurv", "solve"] + self._common(inputs, out_dir)]

    def check(self, index, inputs, out_dir):
        return checks.check_qsolve(1, N1_DEGREE, inputs[1], out_dir)


class Chain(_PerturbedN1):
    """The matrix parametrix chain: spectral 2-norms and dense algebra
    dominate; shares the weight layer with qsolve_n1_N12, no qcurvature."""

    name = "chain_n1_N12"
    target_sup = CHAIN_SUP
    warmups = 1  # a ~20-s operation: a second would not fit the run's budget

    def commands(self, index, out_dir, inputs):
        return [["parametrix-check"] + self._common(inputs, out_dir)]

    def check(self, index, inputs, out_dir):
        return checks.check_chain(1, N1_DEGREE, checks.sup_bound(1, inputs[1]), out_dir)


class ExactCold(Workload):
    """Pure-Python exact arithmetic: n=2 N=5 and n=3 N=4 bases built into an
    empty cache, then the Heisenberg self-test for n=1, 2; no dense linear
    algebra."""

    name = "exact_cold"

    def op_inputs(self, index):
        cache = os.path.join(self.work, f"cold_cache_{index}")
        os.makedirs(cache)
        return cache

    def commands(self, index, out_dir, cache):
        cmds = [["basis", "--n", str(n), "--degree", str(N), "--cache", cache,
                 "--out", os.path.join(out_dir, f"basis_n{n}")] for n, N in EXACT_BASES]
        sweep = f"{SELFTEST_SWEEP[0]}..{SELFTEST_SWEEP[-1]}"
        cmds.append(["heisenberg-selftest", "--sweep", sweep,
                     "--out", os.path.join(out_dir, "selftest")])
        return cmds

    def check(self, index, cache, out_dir):
        rng = checks.seeded_rng(self.seed, self.name, index)
        problems = []
        for n, N in EXACT_BASES:
            problems += checks.check_basis_cache(
                n, N, _cache_file(cache, n, N),
                os.path.join(out_dir, f"basis_n{n}", "basis_report.json"), rng)
        problems += checks.check_selftest(os.path.join(out_dir, "selftest"), SELFTEST_SWEEP)
        return problems


def _cache_file(cache, n, N):
    """The one cache file the program wrote for (n, N), whatever its version tag."""
    found = glob.glob(os.path.join(cache, f"basis_n{n}_N{N}_*.json"))
    return found[0] if len(found) == 1 else os.path.join(cache, f"missing_basis_n{n}_N{N}")


WORKLOADS = {w.name: w for w in (QSolve, Chain, ExactCold)}
