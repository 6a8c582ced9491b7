"""The checkout under test: which lvdyn is measured, and on what."""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def lvdyn_origin(root: Path = ROOT) -> Path | None:
    """Where ``import lvdyn`` loads from once this checkout's src/ is first on the path."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.find_spec("lvdyn")
    return Path(spec.origin).resolve() if spec and spec.origin else None


def guard(origin: Path | None, root: Path = ROOT) -> None:
    """Exit 2 unless lvdyn is the package under this checkout's src/."""
    src = (root / "src").resolve()
    if origin is None or src not in origin.parents:
        print(f"refusing to run: lvdyn resolves to {origin}, not to a module under {src}",
              file=sys.stderr)
        sys.exit(2)


def _git_sha(root: Path) -> str | None:
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_sha256(root: Path) -> str:
    """Digest of every file under src/, so a result names its code without git."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def versions() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def provenance(root: Path = ROOT) -> dict:
    return {"git_sha": _git_sha(root), "src_sha256": _src_sha256(root), **versions(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model()}
