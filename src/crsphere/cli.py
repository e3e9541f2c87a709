"""Command-line driver tying the model, spectra, chains, and the solver together.

Subcommands: basis, spectrum, parametrix-check, qcurv, heisenberg-selftest.
Every run writes its reports plus a manifest.json (config snapshot, input
hashes, emitted files with content hashes) into the output directory;
--verify re-hashes a previous run instead of computing anything.

Exit codes: 0 success, 2 invalid configuration, 3 mathematical obstruction
(non-solvable Q-datum), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from .defaults import BASIS_CAP, OBSTRUCTION_TOL, TAYLOR_DEPTH
from .errors import ConfigError, NumericalError, ObstructionError
from .harmonics import HarmonicBasis, dim_hpq
from .reportio import RunManifest, verify_manifest, write_csv, write_json
from .scalars import parse_qi

# galerkin, parametrix, qcurvature and spectral load numpy, so the
# commands import them where they are used: `basis` and `heisenberg-selftest`
# run without it.  heisenberg is imported by `heisenberg-selftest` alone.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBSTRUCTION = 3
EXIT_NUMERICAL = 4

CACHE_ENV = "CRSPHERE_CACHE"


@dataclass
class RunConfig:
    command: str
    n: int = 1
    degree: int = 8
    taylor_depth: int = TAYLOR_DEPTH
    mode: str = "exact"
    cache_dir: str | None = None
    out_dir: str = "out"
    perturbation: str | None = None
    seed: int = 0
    sweep: str | None = None
    mu: str | None = None
    subaction: str | None = None
    cap: int = BASIS_CAP
    obstruction_tol: float = OBSTRUCTION_TOL

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("--n must be >= 1")
        if self.degree < 0:
            raise ConfigError("--degree must be >= 0")
        if self.taylor_depth < 1:
            raise ConfigError("--taylor-depth must be >= 1")
        if self.mode not in ("exact", "float"):
            raise ConfigError("--mode must be exact or float")
        if not 0 < self.obstruction_tol < float("inf"):  # refuses NaN too
            raise ConfigError(f"--obstruction-tol must be finite and positive: "
                              f"{self.obstruction_tol!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def parse_sweep(spec, default_step=2):
    """Parse "10..16", "10..16:3" or "10,12,16" into a sorted, non-empty list, else ConfigError."""
    if spec is None:
        return None
    spec = spec.strip()
    try:
        if ".." in spec:
            body, _, step = spec.partition(":")
            a, _, b = body.partition("..")
            step = int(step) if step else default_step
            values = list(range(int(a), int(b) + 1, step)) if step >= 1 else []
        else:
            values = sorted({int(x) for x in spec.split(",") if x})
    except ValueError:
        raise ConfigError(f"--sweep must read a..b, a..b:step or a,b,...: {spec!r}") from None
    if not values:
        raise ConfigError(f"--sweep {spec!r} has no value")
    return values


def _load_basis(cfg, degree=None):
    basis, hit = HarmonicBasis.load_or_build(
        cfg.n, degree if degree is not None else cfg.degree,
        cache_dir=cfg.cache_dir, cap=cfg.cap,
    )
    return basis, hit


def _load_perturbation(cfg, basis):
    from .qcurvature import ContactPerturbation

    with open(cfg.perturbation) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"perturbation file is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"a perturbation file must hold a JSON object: {data!r}")
    data.setdefault("taylor_depth", cfg.taylor_depth)
    pert = ContactPerturbation.from_dict(basis, data)
    return pert, data


def _sup_records(pert):
    """sup|Upsilon|: the certified bound the tail bound rests on, and a sampled value."""
    return {"upsilon_sup_bound": pert.upsilon.sup_norm_bound(),
            "upsilon_sup_sampled": pert.sup_estimate()}


def _qdata_from_file(cfg, basis):
    """QData for qcurv: either generated from the frame or given raw terms."""
    from .qcurvature import QData, parse_terms, qhat
    from .spectral import SpectralFunction

    pert, data = _load_perturbation(cfg, basis)
    if "qdata_terms" in data:
        q = SpectralFunction.from_terms(basis, parse_terms(data["qdata_terms"]))
        return QData(q, pert, q.is_exact and pert.is_zero(), pert.K, pert.exp_tail_bound())
    if pert.is_zero():
        raise ConfigError("qcurv needs a nonzero perturbation or explicit qdata_terms")
    return qhat(pert)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_basis(cfg, manifest):
    t0 = time.time()
    basis, hit = _load_basis(cfg)
    elapsed = time.time() - t0
    print(f"basis n={cfg.n} N={cfg.degree}: dim {basis.total_dim} "
          f"({'cache hit' if hit else 'built'}, {elapsed:.3f}s)")
    report = {
        "n": cfg.n,
        "N": cfg.degree,
        "total_dim": basis.total_dim,
        "blocks": [
            {"p": p, "q": q, "dim": len(basis.blocks[(p, q)])}
            for (p, q) in basis.block_order
        ],
        "dim_formula_check": all(
            len(basis.blocks[(p, q)]) == dim_hpq(cfg.n, p, q) for (p, q) in basis.block_order
        ),
    }
    manifest.add(write_json(os.path.join(cfg.out_dir, "basis_report.json"), report))
    if cfg.cache_dir:
        print(f"cache: {os.path.join(cfg.cache_dir, basis.cache_filename(cfg.n, cfg.degree))}")
    return EXIT_OK


def _eigentable_rows(basis_or_trunc, n, mus, exact):
    from .spectral import critical_gjms, l_mu, reeb_t, sublaplacian

    it = reeb_t(basis_or_trunc)
    db = sublaplacian(basis_or_trunc)
    P = critical_gjms(basis_or_trunc)
    extra = [l_mu(basis_or_trunc, mu) for mu in mus]
    rows = []
    for (p, q) in db.blocks():
        row = [p, q, dim_hpq(n, p, q)]
        vals = [db.value(p, q), it.value(p, q), P.value(p, q)] + [m.value(p, q) for m in extra]
        if exact:
            row += [str(v) for v in vals]
        else:
            row += [float(v) for v in vals]
        rows.append(row)
    return rows


# relative differences of float64 eigenvalue minima below this are rounding
ROUNDING_FLOOR = 1e-12


def max_relative_decrease(vals):
    """Largest relative fall of a sweep's minima below the first one.

    Minima that agree to rounding differ by ~1e-14 relative; a fall of at
    most ROUNDING_FLOOR is reported as 0.0, not as a decrease.
    """
    if not vals or not vals[0]:
        return 0.0
    worst = max((vals[0] - v) / vals[0] for v in vals)
    return worst if worst > ROUNDING_FLOOR else 0.0


def cmd_spectrum(cfg, manifest):
    from .parametrix import min_nonzero_abs_eigenvalue, spectrum_diagonal, spectrum_pencil
    from .spectral import critical_gjms

    try:
        mus = [parse_qi(s) for s in cfg.mu.split(",")] if cfg.mu else []
    except ValueError as exc:
        raise ConfigError(f"--mu: {exc}") from None
    if any(mu.im for mu in mus):
        raise ConfigError(f"--mu: L_mu needs a real mu: {cfg.mu}")
    mus = [mu.re for mu in mus]
    sweep = parse_sweep(cfg.sweep) or [cfg.degree]
    header = ["p", "q", "dim", "lambda_deltab", "lambda_iT", "lambda_P"] + [
        f"lambda_mu_{mu}" for mu in mus
    ]
    stability = []
    for N in sweep:
        basis, _ = _load_basis(cfg, degree=N)
        rows = _eigentable_rows(basis, cfg.n, mus, cfg.mode == "exact")
        manifest.add(write_csv(
            os.path.join(cfg.out_dir, f"eigentable_n{cfg.n}_N{N}.csv"), header, rows))
        if cfg.perturbation:
            pert, _ = _load_perturbation(cfg, basis)
            spec = spectrum_pencil(basis, pert.weight())
            manifest.add(write_csv(
                os.path.join(cfg.out_dir, f"matrix_spectrum_n{cfg.n}_N{N}.csv"),
                ["k", "eigenvalue"],
                [[k, float(v)] for k, v in enumerate(spec.eigenvalues)],
            ))
            clusters = [
                {"value": c.value, "multiplicity": c.multiplicity}
                for c in spec.multiplicity_clusters
            ]
            manifest.add(write_json(
                os.path.join(cfg.out_dir, f"clusters_n{cfg.n}_N{N}.json"),
                {"N": N, "kernel_dim": spec.kernel_dim, "clusters": clusters},
            ))
        else:
            spec = spectrum_diagonal(critical_gjms(basis))
        stability.append({"N": N, "min_nonzero_abs": min_nonzero_abs_eigenvalue(spec),
                          "kernel_dim": spec.kernel_dim})
        print(f"spectrum N={N} done")
    if len(sweep) > 1:
        vals = [s["min_nonzero_abs"] for s in stability]
        summary = {"sweep": stability,
                   "max_relative_decrease_from_first": max_relative_decrease(vals),
                   "rounding_floor": ROUNDING_FLOOR}
        manifest.add(write_json(os.path.join(cfg.out_dir, "stability_summary.json"), summary))
    return EXIT_OK


def cmd_parametrix_check(cfg, manifest):
    from .parametrix import (
        build_chain_diagonal,
        build_chain_matrix,
        smoothing_residual,
        spectrum_diagonal,
    )

    basis, _ = _load_basis(cfg)
    chain = build_chain_diagonal(basis)
    report = chain.diagnostics.to_jsonable()
    report["smoothing"] = smoothing_residual(chain)
    report["config"] = {"n": cfg.n, "N": cfg.degree, "mode": "exact", "upsilon": "0"}
    manifest.add(write_json(os.path.join(cfg.out_dir, "parametrix_diagonal.json"), report))
    sd = spectrum_diagonal(chain.member("P"))
    manifest.add(write_csv(
        os.path.join(cfg.out_dir, f"gjms_eigenvalues_n{cfg.n}_N{cfg.degree}.csv"),
        ["value", "multiplicity"],
        [[("%r" % c.value), c.multiplicity] for c in sd.multiplicity_clusters],
    ))
    # R0 itself is rank one by design; everything else must vanish exactly
    nonzero = [
        k for k, v in chain.diagnostics.entries.items()
        if k.endswith("_sup") and k != "R0_sup" and str(v) != "0"
    ]
    print(f"diagonal chain: {'all residuals exactly zero' if not nonzero else nonzero}")

    if cfg.perturbation:
        pert, _ = _load_perturbation(cfg, basis)
        sups = _sup_records(pert)  # sampled before the chain's members take memory
        mchain = build_chain_matrix(basis, pert.weight())
        mreport = mchain.diagnostics.to_jsonable()
        mreport["smoothing"] = smoothing_residual(mchain)
        mreport.update(sups, weight_tail_bound=pert.exp_tail_bound())
        mreport["config"] = {"n": cfg.n, "N": cfg.degree, "mode": "float",
                             "upsilon": pert.label, "taylor_depth": pert.K}
        manifest.add(write_json(os.path.join(cfg.out_dir, "parametrix_matrix.json"), mreport))
        print(f"matrix chain: A0 residual {mchain.diagnostics.entries['A0_residual']:.3e}")
    return EXIT_OK


def cmd_qcurv(cfg, manifest):
    from .qcurvature import solvability_check, solve_zero_q, total_q

    basis, _ = _load_basis(cfg)
    qdata = _qdata_from_file(cfg, basis)
    sub = cfg.subaction

    qrows = [
        [p, q, i, complex(c).real, complex(c).imag] for p, q, i, c in qdata.qhat.terms()
    ]
    manifest.add(write_csv(
        os.path.join(cfg.out_dir, "qhat_coefficients.csv"),
        ["p", "q", "index", "re", "im"], qrows))

    if sub == "compute":
        value, passed = total_q(qdata)
        report = {
            "n": cfg.n, "N": cfg.degree, "taylor_depth": qdata.taylor_depth,
            "exact": qdata.exact, "tail_bound": qdata.tail_bound,
            "qhat_norm": qdata.qhat.norm(),
            "total_q": value, "total_q_vanishes": passed,
            **_sup_records(qdata.frame),
        }
        manifest.add(write_json(os.path.join(cfg.out_dir, "qcurv_compute.json"), report))
        print(f"total Q = {value:.3e} ({'PASS' if passed else 'FAIL'})")
        return EXIT_OK

    if sub == "check":
        report = solvability_check(qdata, tol=cfg.obstruction_tol)
        manifest.add(write_json(
            os.path.join(cfg.out_dir, "qcurv_check.json"), report.to_jsonable()))
        print(f"solvable: {report.solvable} "
              f"(interior obstruction {report.obstruction_norm_interior:.3e})")
        return EXIT_OK if report.solvable else EXIT_OBSTRUCTION

    # solve
    try:
        report = solve_zero_q(qdata, tol=cfg.obstruction_tol)
    except ObstructionError as exc:
        payload = {"solvable": False, "obstruction_norm": exc.obstruction_norm,
                   "error": str(exc)}
        manifest.add(write_json(os.path.join(cfg.out_dir, "qcurv_solve.json"), payload))
        print(f"not solvable: {exc}")
        raise
    manifest.add(write_json(
        os.path.join(cfg.out_dir, "qcurv_solve.json"), report.to_jsonable()))
    if report.upsilon_sol is not None:
        manifest.add(write_csv(
            os.path.join(cfg.out_dir, "upsilon_sol.csv"),
            ["p", "q", "index", "re", "im"],
            [[p, q, i, complex(c).real, complex(c).imag]
             for p, q, i, c in report.upsilon_sol.terms()],
        ))
    print(f"solved: residual {report.residual:.3e}, final Q norm {report.final_q_norm:.3e}")
    return EXIT_OK


def cmd_heisenberg_selftest(cfg, manifest):
    from .heisenberg import LeftInvariantOp, box_b, model_identity_suite, sublaplacian_model

    ns = parse_sweep(cfg.sweep, default_step=1) or [cfg.n]
    if ns[0] < 1:
        raise ConfigError(f"--sweep over n needs n >= 1: {cfg.sweep!r}")
    report = {"seed": cfg.seed, "runs": []}
    all_ok = True
    for n in ns:
        records = model_identity_suite(n, seed=cfg.seed)
        ok = all(r["passed"] for r in records)
        all_ok &= ok
        report["runs"].append({
            "n": n,
            "passed": ok,
            "identities": records,
            "operators": {
                "T": LeftInvariantOp.t_gen(n).to_jsonable(),
                "box_b": box_b(n).to_jsonable(),
                "delta_b": sublaplacian_model(n).to_jsonable(),
            },
        })
        for r in records:
            print(f"n={n} {r['name']}: {'PASS' if r['passed'] else 'FAIL'}")
    report["passed"] = all_ok
    manifest.add(write_json(os.path.join(cfg.out_dir, "heisenberg_selftest.json"), report))
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crsphere",
        description="Spectral toolkit for the critical CR GJMS operator on the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("basis", "build and cache the truncated harmonic basis"),
        ("spectrum", "eigentables and (perturbed) matrix spectra"),
        ("parametrix-check", "parametrix-chain diagnostics"),
        ("qcurv", "Q-curvature computation, solvability, and the zero-Q solve"),
        ("heisenberg-selftest", "exact model-identity suite"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, default=1, help="CR dimension (sphere S^{2n+1})")
        p.add_argument("--degree", type=int, default=8, help="truncation degree N")
        p.add_argument("--taylor-depth", type=int, default=TAYLOR_DEPTH,
                       help="Taylor depth K for the conformal factor")
        p.add_argument("--mode", choices=["exact", "float"], default="exact")
        p.add_argument("--perturbation", help="perturbation specification JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--cache", default=os.environ.get(CACHE_ENV),
                       help=f"basis cache directory (default ${CACHE_ENV})")
        p.add_argument("--sweep", help="degree sweep, e.g. 10..16 or 10,12,16"
                       " (selftest: sweep over n)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mu", help="extra L_mu eigentable columns, comma separated")
        p.add_argument("--cap", type=int, default=BASIS_CAP)
        p.add_argument("--obstruction-tol", type=float, default=OBSTRUCTION_TOL)
        p.add_argument("--verify", action="store_true",
                       help="verify the manifest in --out instead of running")
        if name == "qcurv":
            p.add_argument("subaction", choices=["compute", "check", "solve"])
    return parser


COMMANDS = {
    "basis": cmd_basis,
    "spectrum": cmd_spectrum,
    "parametrix-check": cmd_parametrix_check,
    "qcurv": cmd_qcurv,
    "heisenberg-selftest": cmd_heisenberg_selftest,
}


def _linalg_error():
    """numpy's LinAlgError once numpy is loaded; before that none can be raised."""
    numpy = sys.modules.get("numpy")
    return numpy.linalg.LinAlgError if numpy is not None else NumericalError


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verify:
        try:
            ok, mismatches = verify_manifest(args.out)
        except ConfigError as exc:
            print(f"verify failed: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if ok:
            print("manifest verified: all hashes match")
            return EXIT_OK
        for m in mismatches:
            print(f"mismatch: {m['path']} ({m['reason']})", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        cfg = RunConfig(
            command=args.command,
            n=args.n,
            degree=args.degree,
            taylor_depth=args.taylor_depth,
            mode=args.mode,
            cache_dir=args.cache,
            out_dir=args.out,
            perturbation=args.perturbation,
            seed=args.seed,
            sweep=args.sweep,
            mu=args.mu,
            subaction=getattr(args, "subaction", None),
            cap=args.cap,
            obstruction_tol=args.obstruction_tol,
        )
        os.makedirs(cfg.out_dir, exist_ok=True)
        manifest = RunManifest(
            cfg.out_dir, cfg.to_dict(),
            input_paths=[cfg.perturbation] if cfg.perturbation else [],
        )
        code = COMMANDS[cfg.command](cfg, manifest)
        manifest.write()
        return code
    except ObstructionError as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        try:
            manifest.write()
        except Exception:
            pass
        return EXIT_OBSTRUCTION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, _linalg_error()) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
