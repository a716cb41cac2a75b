"""The run record: what machine, code and workload produced a result."""

import hashlib
import math
import os
import subprocess
from pathlib import Path

import numpy as np

from checks import TEST_FRACTION


def _commit(root):
    """HEAD of the checkout's own git directory, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu():
    model, l3 = None, None
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "Model name":
                model = value.strip()
            elif key.strip() == "L3 cache":
                l3 = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if l3 is None:
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == "3":
                    l3 = (index / "size").read_text().strip()
            except OSError:
                pass
    return model, l3


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return None


def machine_record(root, thread_cap):
    model, l3 = _cpu()
    return {"commit": _commit(root), "src_sha256": _source_digest(root / "src"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l3_cache": l3, "blas": _blas(), "blas_thread_cap": thread_cap,
            "numpy": np.__version__}


def workload_record(run):
    wl = run.workload
    nnz = run.generated["nnz"]
    nnz_train = nnz - max(1, math.floor(TEST_FRACTION * nnz))
    return {"name": wl.name, "n_users": run.generated["n_users"],
            "n_items": run.generated["n_items"], "nnz": nnz,
            "nnz_train": nnz_train, "k": wl.k, "n_classes": wl.n_classes,
            "iterations": wl.iterations, "stages": list(wl.stages),
            "nnz_k_float64_temp_bytes_computed": nnz_train * wl.k * 8}
