"""Deterministic report emission and the run manifest.

Exact-mode payloads contain only strings and integers, so identical
configurations produce byte-identical files.  The manifest lists every
emitted file with its content hash; timestamps and the BLAS thread-pool
variables the process saw live only in the manifest, never in the hashed
payloads.
"""

from __future__ import annotations

import csv
import json
import os
import time

from .errors import ConfigError

# CPython's builtin SHA-256 (the module random takes its _sha512 the same
# way): hashlib would map OpenSSL's libcrypto into every run to hash a few files
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # before 3.12
    except ImportError:
        from hashlib import sha256

ARTIFACT_VERSION = "0.1.0"
# the variables that size the BLAS / OpenMP thread pool numpy loads with;
# an unpinned pool takes one thread per core
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path):
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


class RunManifest:
    """Collects emitted files and writes manifest.json in the output directory."""

    def __init__(self, out_dir, config_snapshot, input_paths=()):
        self.out_dir = out_dir
        self.config = config_snapshot
        self.inputs = {
            os.path.basename(p): sha256_file(p) for p in input_paths if p and os.path.exists(p)
        }
        self.files = []
        self.started = time.time()
        self.blas_env = {name: os.environ.get(name) for name in BLAS_ENV}

    def add(self, path):
        self.files.append(path)
        return path

    def write(self):
        payload = {
            "artifact_version": ARTIFACT_VERSION,
            "config": self.config,
            "input_hashes": self.inputs,
            "emitted": [
                {"path": os.path.relpath(p, self.out_dir), "sha256": sha256_file(p)}
                for p in sorted(self.files)
            ],
            "timestamps": {"started": self.started, "written": time.time()},
            "blas_env": self.blas_env,
        }
        return write_json(os.path.join(self.out_dir, "manifest.json"), payload)


def verify_manifest(out_dir):
    """Recompute hashes of every emitted file; returns (ok, mismatches)."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise ConfigError(f"no manifest at {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    mismatches = []
    for entry in manifest.get("emitted", []):
        fpath = os.path.join(out_dir, entry["path"])
        if not os.path.exists(fpath):
            mismatches.append({"path": entry["path"], "reason": "missing"})
        elif sha256_file(fpath) != entry["sha256"]:
            mismatches.append({"path": entry["path"], "reason": "hash mismatch"})
    return not mismatches, mismatches
