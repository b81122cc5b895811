"""Where a record's numbers came from: source revision and machine fingerprint.

Two records are comparable only when their *machine* fingerprints match
(cores, Python, NumPy, BLAS and its thread count).  The source revision is
provenance: it is expected to differ between a parent and its change.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

__all__ = ["MACHINE_KEYS", "fingerprint", "source_revision"]

#: Keys that must match for two records to be compared.
MACHINE_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads", "machine")


def source_revision(root: Path) -> Dict[str, str]:
    """The git sha when ``root`` is a git checkout, plus a hash of ``src/``.

    The content hash identifies the code even in an exported tree that has
    no ``.git`` directory.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    revision = {"src_sha256": digest.hexdigest()}
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                revision["git_sha"] = sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return revision


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.25 prints instead of returning
        return {"name": "unknown", "version": "unknown", "lib": ""}
    return {"name": str(deps.get("name", "unknown")),
            "version": str(deps.get("version", "unknown")),
            "lib": str(deps.get("lib directory", ""))}


def _openblas_threads(lib_dir: str) -> Optional[int]:
    """Ask the OpenBLAS NumPy loaded how many threads it runs, if it can be found.

    Wheels bundle the library next to the package (``numpy.libs``); source
    builds link the one in the build's lib directory.
    """
    import numpy as np

    bundled = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    candidates = [path for directory in (bundled, lib_dir)
                  for path in sorted(glob.glob(os.path.join(directory, "*openblas*.so*")))]
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> Dict[str, object]:
    import numpy as np

    blas = _blas()
    threads = _openblas_threads(blas["lib"])
    if threads is None:
        threads = (os.environ.get("OPENBLAS_NUM_THREADS")
                   or os.environ.get("OMP_NUM_THREADS") or "default")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }
