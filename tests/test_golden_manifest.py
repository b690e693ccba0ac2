"""Every frozen file matches the sha256 ``tests/goldens/MANIFEST.json``
records for it, and every file under ``tests/goldens/`` is listed."""

from ._goldens import GOLDENS, MANIFEST, ROOT, manifest, sha256


def test_manifest_pins_every_frozen_file():
    entries = manifest()
    problems = [f"{key}: missing" for key in sorted(entries)
                if not (ROOT / key).is_file()]
    problems += [f"{key}: bytes differ from MANIFEST.json"
                 for key, digest in sorted(entries.items())
                 if (ROOT / key).is_file()
                 and sha256((ROOT / key).read_bytes()) != digest]
    problems += [f"{key}: not listed in MANIFEST.json"
                 for key in sorted(p.relative_to(ROOT).as_posix()
                                   for p in GOLDENS.rglob("*")
                                   if p.is_file() and p != MANIFEST)
                 if key not in entries]
    assert not problems, "\n".join(problems)
