"""Every shipped fixture still writes the artifacts recorded in the manifest.

`fixture_artifacts.sha256` holds one `<sha256>  <fixture>/<file>` line per
artifact, recorded from the fixtures as shipped.  A change that alters any
byte of any artifact fails here; update the manifest only for an intended
change, and say why.
"""
import hashlib
import json
from pathlib import Path

import pytest

from fractalis.cli import main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"


def manifest():
    out = {}
    for line in (TESTS / "fixture_artifacts.sha256").read_text().splitlines():
        digest, name = line.split()
        fixture, artifact = name.split("/")
        out.setdefault(fixture, {})[artifact] = digest
    return out


MANIFEST = manifest()


def test_manifest_covers_every_fixture():
    assert sorted(MANIFEST) == sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert sum(len(v) for v in MANIFEST.values()) == 24


@pytest.mark.parametrize("fixture", sorted(MANIFEST))
def test_fixture_artifacts_match_manifest(tmp_path, fixture):
    path = FIXTURES / f"{fixture}.json"
    mode = json.loads(path.read_text())["mode"]
    assert main([mode, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == MANIFEST[fixture]
