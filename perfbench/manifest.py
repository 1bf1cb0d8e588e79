"""What a result was measured on: versions, threads, load and source state.

Nothing here starts a process: the BLAS thread count comes from the
OpenBLAS library NumPy loaded, and the git state is read from the
files under `.git` when the checkout has them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import struct
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> tuple[str | None, int | None]:
    """(OpenBLAS version, its thread count), None where unknown."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return version, int(fn())
    return version, None


def _git_rev(git: Path) -> str | None:
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def _index_entries(index: bytes):
    """(path, blob sha1) for each entry of a version 2 or 3 git index."""
    sig, version, count = struct.unpack(">4sII", index[:12])
    if sig != b"DIRC" or version not in (2, 3):
        raise ValueError(f"unsupported git index version {version}")
    pos = 12
    for _ in range(count):
        sha = index[pos + 40 : pos + 60].hex()
        (flags,) = struct.unpack(">H", index[pos + 60 : pos + 62])
        head = 62 + (2 if flags & 0x4000 else 0)
        end = index.index(b"\0", pos + head)
        yield index[pos + head : end].decode(), sha
        pos += (end - pos + 8) // 8 * 8


def _git_dirty(root: Path, git: Path) -> bool:
    """True when a tracked file's content differs from the index."""
    for rel, sha in _index_entries((git / "index").read_bytes()):
        path = root / rel
        if not path.is_file() or path.is_symlink():
            return True
        data = path.read_bytes()
        blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        if blob != sha:
            return True
    return False


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """(rev, dirty); (None, None) outside a git checkout."""
    git = root / ".git"
    if not git.is_dir():
        return None, None
    try:
        return _git_rev(git), _git_dirty(root, git)
    except (OSError, ValueError, struct.error):
        return None, None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code under test
    in checkouts that carry no git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(root: Path, seed: int, workload: str) -> dict:
    blas_version, blas_threads = blas_info()
    rev, dirty = git_state(root)
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": source_digest(root / "src"),
        "loadavg_start": list(os.getloadavg()),
    }
