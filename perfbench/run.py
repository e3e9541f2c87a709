"""crsphere benchmark: runs the CLI as a user does and prints its metrics.

    python3 perfbench/run.py --workload qsolve_n1_N12 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it runs `src/crsphere` with
PYTHONPATH=src; nothing needs installing).  One run: set-up (the basis
cache, built once, then the workload's untimed warm-up operations), then a
closed loop of operations, one at a time, each a fresh process, for as
many as are expected to end within --seconds (at least one).  Every
operation's outputs, the warm-ups' too, are checked apart from the program;
an operation that exits non-zero or fails a check counts as failed.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from spans recorded around crsphere's layers
(see tracing.py).

    python3 perfbench/run.py --workload all --repeat 10 --seed 1

repeats whole runs with seeds 1..10 and prints each metric's median,
quartiles and spread across runs (the steadiness figures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1  # capped at nproc; README explains the choice
PROCESS_TIMEOUT_S = 90
RUN_LIMIT_S = 100  # only the first operation may be expected to end later in a run

# X_s: self time of span X per op; X_calls: calls of span (or counter) X per
# op; the two byte counters are summed file sizes per op
PER_LAYER = (
    ("cli.import_s", "s"),
    ("reportio.write_s", "s"),
    ("reportio.manifest_s", "s"),
    ("reportio.bytes_emitted", "bytes"),
    ("harmonics.load_s", "s"),
    ("harmonics.block_polys_s", "s"),
    ("harmonics.gram_schmidt_s", "s"),
    ("harmonics.inner_sphere_calls", "count"),
    ("harmonics.save_s", "s"),
    ("harmonics.cache_bytes", "bytes"),
    ("heisenberg.identity_suite_s", "s"),
    ("spectral.sup_norm_estimate_s", "s"),
    ("galerkin.context_s", "s"),
    ("galerkin.mult_matrix_s", "s"),
    ("galerkin.taylor_matrix_s", "s"),
    ("galerkin.weight_check_s", "s"),
    ("galerkin.full_context_s", "s"),
    ("galerkin.taylor_apply_s", "s"),
    ("galerkin.weight_solve_s", "s"),
    ("galerkin.weight_solve_calls", "count"),
    ("galerkin.projector_s", "s"),
    ("galerkin.adjoint_defect_s", "s"),
    ("parametrix.hatted_gjms_s", "s"),
    ("parametrix.chain_diagonal_s", "s"),
    ("parametrix.chain_matrix_s", "s"),
    ("parametrix.spectrum_matrix_s", "s"),
    ("qcurvature.qhat_s", "s"),
    ("qcurvature.solvability_s", "s"),
    ("qcurvature.solve_s", "s"),
    ("qcurvature.final_q_s", "s"),
    ("linalg.norm2_calls", "count"),
    ("linalg.norm2_s", "s"),
    ("linalg.eigh_calls", "count"),
    ("linalg.eigh_s", "s"),
    ("linalg.solve_calls", "count"),
    ("linalg.solve_s", "s"),
    ("trace.overhead_s", "s"),
)


def nproc():
    return len(os.sched_getaffinity(0))


def op_env(blas_threads):
    """Environment of every crsphere process: the source tree, a fixed BLAS pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, so same work, every op
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_process(argv, env, log_path):
    """Run one process to its end; returns (wall s, peak RSS MB, exit code)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Op:
    """One operation: wall time, peak RSS, problems found, span files if traced."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.wall = 0.0  # its processes, spawn to reap
        self.elapsed = 0.0  # input generation and its processes
        self.check_s = 0.0
        self.rss_mb = 0.0
        self.problems = []
        self.span_files = []


class Runner:
    def __init__(self, workload, seed, blas_threads):
        self.work = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.wl = WORKLOADS[workload](seed, self.work)
        self.env = op_env(blas_threads)
        self.log = os.path.join(self.work, "process.log")

    def cli(self, args):
        return [sys.executable, "-m", "crsphere.cli"] + args

    def prepare(self):
        start = time.perf_counter()
        for args in self.wl.prepare():
            _, _, code = run_process(self.cli(args), self.env, self.log)
            if code:
                raise RuntimeError(f"set-up command failed ({code}): {' '.join(args)}\n"
                                   + _tail(self.log))
        return time.perf_counter() - start

    def op(self, index, traced):
        op = Op(index, traced)
        start = time.perf_counter()
        out_dir = os.path.join(self.work, f"op_{index}")
        inputs = self.wl.op_inputs(index)
        for j, args in enumerate(self.wl.commands(index, out_dir, inputs)):
            if traced:
                spans = os.path.join(self.work, f"spans_{index}_{j}.json")
                op.span_files.append(spans)
                argv = [sys.executable, os.path.join(HERE, "traced_op.py"), spans, str(index),
                        "--"] + args
            else:
                argv = self.cli(args)
            wall, rss, code = run_process(argv, self.env, self.log)
            op.wall += wall
            op.rss_mb = max(op.rss_mb, rss)
            if code:
                op.problems.append(f"`{' '.join(args[:1])}` exited {code}: {_tail(self.log)}")
                break
        op.elapsed = time.perf_counter() - start
        if not op.problems:
            op.problems = self.wl.check(index, inputs, out_dir)
        op.check_s = time.perf_counter() - start - op.elapsed
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _tail(path, lines=5):
    try:
        with open(path) as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def load_spans(traced_ops):
    """The span dumps of the traced operations' processes (a killed one wrote none)."""
    dumps = []
    for op in traced_ops:
        for path in op.span_files:
            if os.path.isfile(path):
                with open(path) as fh:
                    dumps.append(json.load(fh))
    return dumps


def layer_metrics(dumps, n_ops, overhead):
    """Per-layer self times and counts per traced operation."""
    times, calls, counts = {}, {}, {}
    for dump in dumps:
        for name, (t, c) in tracing.self_times(dump["spans"]).items():
            times[name] = times.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + c
        for name, c in dump["counts"].items():
            counts[name] = counts.get(name, 0) + c
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead
        elif name.endswith("_s"):
            value = times.get(name[:-2], 0.0) / n_ops
        elif name.endswith("_calls"):
            base = name[: -len("_calls")]
            value = (calls.get(base, 0) + counts.get(base, 0)) / n_ops
        else:
            value = counts.get(name, 0) / n_ops
        if unit != "s" and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(workload, seed, dumps, metrics):
    """All spans of the run's traced operations, written once the run is over."""
    trace_dir = os.path.join(WORK_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload}-s{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": dumps, "metrics": metrics}, fh)
    return path


def run(workload, seed, seconds, trace, blas_threads):
    runner = Runner(workload, seed, blas_threads)
    try:
        run_start = time.perf_counter()
        prepare = runner.prepare()
        warm = [runner.op(-1 - k, traced=False) for k in range(runner.wl.warmups)]
        for op in warm:
            _report(op, "warm-up ")
        setup_s = prepare + statistics.median(op.elapsed for op in warm)

        ops = []
        loop_start = time.perf_counter()
        while True:
            # closed loop: start an operation only if it should end within --seconds
            expected = statistics.median([op.wall for op in ops or warm])
            now = time.perf_counter()
            fits = (now - loop_start + expected <= seconds
                    and now - run_start + expected <= RUN_LIMIT_S)
            if ops and not fits and (not trace or {op.traced for op in ops} == {False, True}):
                break
            op = runner.op(len(ops), traced=bool(trace and len(ops) % 2))
            ops.append(op)
            _report(op, "traced " if op.traced else "")
        # the timed run: the loop without the checks, which run outside it
        loop_s = time.perf_counter() - loop_start - sum(op.check_s for op in ops)

        plain = [op for op in ops if not op.traced]
        traced = [op for op in ops if op.traced]
        failed = sum(1 for op in warm + ops if op.problems)
        if trace:
            overhead = (statistics.median(op.wall for op in traced)
                        - statistics.median(op.wall for op in plain))
            dumps = load_spans(traced)
            metrics = layer_metrics(dumps, len(traced), overhead)
            print(f"trace: {write_trace(workload, seed, dumps, metrics)}", file=sys.stderr)
        else:
            passed = sum(1 for op in plain if not op.problems)
            metrics = {
                "op_s_p50": {"value": statistics.median(op.wall for op in plain), "unit": "s"},
                "ops_per_min": {"value": 60.0 * passed / loop_s, "unit": "ops/min"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": max(op.rss_mb for op in plain), "unit": "MB"},
            }
        return {"correct": bool(ops) and failed == 0, "attempted": len(warm) + len(ops),
                "failed": failed, "metrics": metrics}
    finally:
        runner.close()


def _report(op, kind):
    print(f"{kind}op {op.index}: {op.wall:.3f} s, {op.rss_mb:.0f} MB, check {op.check_s:.2f} s"
          f"{', FAILED ' + '; '.join(op.problems) if op.problems else ''}", file=sys.stderr)


# ---------------------------------------------------------------------------
# steadiness: whole runs repeated
# ---------------------------------------------------------------------------


def spread_table(results):
    """{metric: (median, q1, q3, (q3 - q1) / median)} across runs."""
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        table[name] = (med, q1, q3, (q3 - q1) / med if med else float("nan"))
    return table


def repeat(args):
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        results = []
        for k in range(args.repeat):
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=600)
            if proc.returncode:
                raise SystemExit(f"{name} seed {seed}: run exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{name} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                  flush=True)
        table = spread_table(results)
        for metric, (med, q1, q3, spread) in table.items():
            print(f"  {name} {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.2%}", flush=True)
        summary[name] = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "attempted": [r["attempted"] for r in results],
            "metrics": {m: dict(zip(("median", "q1", "q3", "spread"), v))
                        for m, v in table.items()},
        }
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeat whole runs (seeds seed..seed+N-1) and print their spread")
    parser.add_argument("--blas-threads", type=int, default=BLAS_THREADS,
                        help="BLAS threads of every crsphere process (capped at nproc)")
    args = parser.parse_args(argv)
    args.blas_threads = max(1, min(args.blas_threads, nproc()))
    if not os.path.isfile(os.path.join(ROOT, "src", "crsphere", "cli.py")):
        print(f"no crsphere sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs")
        repeat(args)
        return 0
    if args.workload == "all":
        parser.error("a single run needs one workload")
    # a terminating signal unwinds through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, args.trace, args.blas_threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
