"""The garmwatch package of the checkout the benchmark sits in."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "garmwatch"


def load():
    """Import garmwatch from this checkout's sources, never from elsewhere.

    Exits with status 1 when the checkout has no package.
    """
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no garmwatch package at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import garmwatch
    if Path(garmwatch.__file__).resolve() != init.resolve():
        sys.exit(f"error: garmwatch was imported from {garmwatch.__file__}, not {PACKAGE}")
    return garmwatch


def code_hash() -> str:
    """sha256 over the package's source files, to key reference outputs."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
