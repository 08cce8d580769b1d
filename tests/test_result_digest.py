"""``tools/result_digest.py``: one sha256 of what the library computes on
fixed seeded problems."""

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "result_digest.py"
_SPEC = importlib.util.spec_from_file_location("result_digest", _PATH)
result_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(result_digest)


def digest_of(obj) -> str:
    sha = hashlib.sha256()
    result_digest.feed(sha, obj)
    return sha.hexdigest()


def test_the_digest_is_the_same_on_every_run():
    line = result_digest.digest()
    assert re.fullmatch(r"10 results sha256=[0-9a-f]{64}", line)
    assert result_digest.digest() == line


def test_one_ulp_a_signed_zero_or_a_dtype_changes_the_digest():
    vec = np.array([1.0, 0.0, 2.0])
    changed = [vec.copy() for _ in range(4)]
    changed[0][0] = np.nextafter(1.0, 2.0)
    changed[1][1] = -0.0
    changed[2] = vec.astype(complex)
    changed[3] = vec[:, None]
    digests = {digest_of(v) for v in [vec, *changed]}
    digests |= {digest_of(x) for x in (1.0, -0.0, 0.0, "1.0", 1, (1.0,), [1.0, 1.0], None)}
    assert len(digests) == 5 + 8
