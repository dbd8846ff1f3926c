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

# sha256 of stdout, recorded when the rotation demo's Gaussian took
# math.exp, hodge_solve its L2 norms by Parseval and sample_form its
# placed half spectra (the Hodge demo), and when every grid field held
# its half spectrum and the pullback read it (the rotation demo): the
# same bytes at every numpy SIMD dispatch level
DEMO_SHA256 = {
    "rotation_invariance.py":
        "6b2f83e93242e7189e44431c0f26a99d29cf7bdb3e41a200775061e15f8e9588",
    "hodge_inversion.py":
        "eaefc00eaf208190bebc89a62487e04374fc9479354cce95c2aef4f9891e0aa6",
}


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_matches_golden_hash(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[demo]
