"""The one golden harness: regenerate, check, load and hash frozen files.

Every golden under ``tests/goldens/`` is read through :func:`load`.  A
run with ``REPRO_REGEN_GOLDENS=1`` first rewrites each golden its
tests reach — JSON as ``json.dumps(obj, indent=1, sort_keys=True)``
plus a newline, text as is — and that file's sha256 in
``tests/goldens/MANIFEST.json``, so a regeneration shows up in the diff
as a manifest change.  ``tests/test_golden_manifest.py`` holds every
listed file to its recorded sha256.
"""

import hashlib
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
MANIFEST = GOLDENS / "MANIFEST.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDENS"))


def sha256(value) -> str:
    """sha256 hex digest of bytes, a text, or any other value's ``repr``."""
    if isinstance(value, str):
        value = value.encode()
    elif not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def manifest() -> dict:
    """Repo-relative path -> sha256 of every frozen file."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def load(name: str, make=None):
    """Golden ``name`` (a JSON one parsed).

    Under ``REPRO_REGEN_GOLDENS=1`` the file is first rewritten from
    ``make()`` — a str is written as is, anything else as JSON — and
    its manifest entry updated.  A golden without ``make`` has no
    regeneration path: it changes only by a deliberate edit.
    """
    path = GOLDENS / name
    if REGEN and make is not None:
        content = make()
        if not isinstance(content, str):
            content = _dumps(content)
        data = content.encode()
        path.write_bytes(data)
        entries = manifest()
        entries[path.relative_to(ROOT).as_posix()] = sha256(data)
        MANIFEST.write_text(_dumps(entries), encoding="utf-8")
    assert path.exists(), (
        f"golden {name} missing — run with REPRO_REGEN_GOLDENS=1 to create "
        "it, then commit the file")
    text = path.read_bytes().decode()
    return json.loads(text) if name.endswith(".json") else text
