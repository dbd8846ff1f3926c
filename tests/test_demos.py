"""The grid demos print the same bytes: their stdout is pinned by hash.

The demos run the grid backend end to end (hodge_solve, the rotation
pullback), so a change that moves any printed digit shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of stdout, recorded before each grid input was transformed once
# per call and the rotation probe built one phase table
DEMO_SHA256 = {
    "rotation_invariance.py":
        "e157f68a41612cefdf1f67e32ef7be04c216b8145a4e5abcebb7f509f101668a",
    "hodge_inversion.py":
        "b78c054d3df12cc96ae6cc39816bda5c5e0744da78a7c20ffba30eef48701f3f",
}


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_matches_golden_hash(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[demo]
