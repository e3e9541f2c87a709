"""Spans around crsphere's layer boundaries, recorded from outside the package.

traced_op.py installs these wrappers in an operation's process before the
CLI runs.  A span records its name, start, end and parent; the process
writes its spans when it exits and the benchmark run gathers them.  A
layer's self time is a span's duration minus the time its child spans
cover (one thread, so children never overlap).

`scalars` and `poly` are deliberately not wrapped: their calls are too
many and too short, so they show up only inside the self time of the
harmonics and heisenberg spans that call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> (module, attribute path); several targets may share a span name
SPANS = (
    ("cli.main", "crsphere.cli", "main"),
    ("reportio.write", "crsphere.reportio", "write_json"),
    ("reportio.write", "crsphere.reportio", "write_csv"),
    ("reportio.manifest", "crsphere.reportio", "RunManifest.write"),
    ("harmonics.load", "crsphere.harmonics", "HarmonicBasis.load"),
    ("harmonics.block_polys", "crsphere.harmonics", "harmonic_block_polys"),
    ("harmonics.gram_schmidt", "crsphere.harmonics", "gram_schmidt_exact"),
    ("harmonics.save", "crsphere.harmonics", "HarmonicBasis.save"),
    ("heisenberg.identity_suite", "crsphere.heisenberg", "model_identity_suite"),
    ("spectral.sup_norm_estimate", "crsphere.spectral", "SpectralFunction.sup_norm_estimate"),
    ("galerkin.context", "crsphere.galerkin", "GalerkinContext.__init__"),
    ("galerkin.mult_matrix", "crsphere.galerkin", "GalerkinContext.mult_matrix"),
    ("galerkin.full_context", "crsphere.galerkin", "full_context"),
    ("galerkin.taylor_matrix", "crsphere.galerkin", "taylor_exp_matrix"),
    ("galerkin.taylor_apply", "crsphere.galerkin", "taylor_exp_apply"),
    ("galerkin.weight_check", "crsphere.galerkin", "InnerProductWeight.__post_init__"),
    ("galerkin.weight_solve", "crsphere.galerkin", "InnerProductWeight.solve"),
    ("galerkin.projector", "crsphere.galerkin", "InnerProductWeight.projector"),
    ("galerkin.adjoint_defect", "crsphere.galerkin", "InnerProductWeight.adjoint_defect"),
    ("parametrix.hatted_gjms", "crsphere.parametrix", "hatted_gjms"),
    ("parametrix.chain_diagonal", "crsphere.parametrix", "build_chain_diagonal"),
    ("parametrix.chain_matrix", "crsphere.parametrix", "build_chain_matrix"),
    ("parametrix.spectrum_matrix", "crsphere.parametrix", "spectrum_matrix"),
    ("qcurvature.qhat", "crsphere.qcurvature", "qhat"),
    ("qcurvature.solvability", "crsphere.qcurvature", "solvability_check"),
    ("qcurvature.solve", "crsphere.qcurvature", "solve_zero_q"),
    ("qcurvature.final_q", "crsphere.qcurvature", "recompute_final_q_norm"),
    ("linalg.eigh", "scipy.linalg", "eigh"),
    ("linalg.eigh", "scipy.linalg", "eigvalsh"),
    ("linalg.solve", "scipy.linalg", "solve"),
)
# counted but not timed: one call is far shorter than a span's own cost
COUNTED = (("harmonics.inner_sphere", "crsphere.harmonics", "inner_sphere"),)
# spans whose return value is a path: its size is added to the byte counter
BYTES = {
    "reportio.write": "reportio.bytes_emitted",
    "reportio.manifest": "reportio.bytes_emitted",
    "harmonics.save": "harmonics.cache_bytes",
}


class Recorder:
    """Spans and counters of one operation process, kept in memory."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def timed(self, name, fn):
        byte_counter = BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if byte_counter and isinstance(out, str) and os.path.isfile(out):
                self.count(byte_counter, os.path.getsize(out))
            return out

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def norm2(self, norm):
        """numpy.linalg.norm, timed only for the matrix 2-norm (a full SVD)."""

        @functools.wraps(norm)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and getattr(x, "ndim", 0) == 2:
                self.begin("linalg.norm2")
                try:
                    return norm(x, ord, axis, keepdims)
                finally:
                    self.end()
            return norm(x, ord, axis, keepdims)

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "spans": self.spans, "counts": self.counts}, fh)


def _replace_everywhere(old, new):
    """Point every crsphere module-level name bound to `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name == "crsphere" or name.startswith("crsphere."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _patch(module_name, path, make):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:  # a method: replace it on its class
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    old = getattr(module, attr)
    new = make(old)
    setattr(module, attr, new)
    _replace_everywhere(old, new)


def install(rec):
    """Wrap every target; call after crsphere.cli (and so every layer) is imported."""
    import numpy.linalg

    for name, module_name, path in SPANS:
        _patch(module_name, path, lambda fn, name=name: rec.timed(name, fn))
    for name, module_name, path in COUNTED:
        _patch(module_name, path, lambda fn, name=name: rec.counted(name, fn))
    numpy.linalg.norm = rec.norm2(numpy.linalg.norm)


def self_times(spans):
    """{span name: (total self time, calls)} of one operation's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - inner, calls + 1)
    return out
