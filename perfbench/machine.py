"""Machine and provenance facts recorded with every benchmark invocation.

Everything is read-only: ``/proc`` and ``/sys`` are read, never written.
"""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _size_bytes(text: str) -> int:
    text = text.strip()
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def last_level_cache_bytes() -> int | None:
    """Size of the highest-level cache seen by CPU 0."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(str(index / "level")), _read(str(index / "size"))
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), _size_bytes(size))
    return best[1] if best else None


def _mem_total_bytes() -> int | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the package's Python files, so checkouts without git are named too."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache_bytes": last_level_cache_bytes(),
        "mem_total_bytes": _mem_total_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "fractsurf"),
    }
