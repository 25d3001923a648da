"""The benchmark workloads' outputs must not change.

Pass 0 of each workload in bench/workloads.py, for seeds 1-3, is run through
cli.dispatch and hashed as bench/worker.py hashes it: SHA-256 over one JSON
line [argv, exit code, output] per command.  The digests pinned here are
those of the kernel before integer-only Q products; a kernel change that
alters any byte of any output, or an exit code, changes a digest.  The test
reads bench/ and changes nothing there; it is skipped when bench/ is absent.
"""

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = os.path.join(BENCH, "workloads.py")

DIGESTS = {
    ("cli-mix", 1): "f2fc7b63778b91cad66fde76adbd12861f4d2a5b68799f6019fbf963a721bd8f",
    ("cli-mix", 2): "9a20129d5261f311f8a9a1353f891cd2a2dbf36a5e054e178256c914e5ae308f",
    ("cli-mix", 3): "dfe5db0da3208fb38d99568fd49e884a444aefe62fa82a539a86a732911554d1",
    ("charp-powers", 1): "81ea9b5b2dbb649109474a8986e4ddaa7f90d8895483de0249f36b15501d87c7",
    ("charp-powers", 2): "0ea8ddb755ef2269c1b564715f9f7ef34122bac4aeebeb817c1bfd4b66b985b5",
    ("charp-powers", 3): "516ea3a4f1d9194580e0b9d9f8995465eee362869af32fdc0858e49e98973c36",
    ("cylinder", 1): "0b3a1344047aa9e5bb5d97b801889a5f66583a4a7ec75d96209f685d800f7ba3",
    ("cylinder", 2): "23ff44e209cff84e354964b3287f5c7c39a3ea307ac3cfec782c22f93e103452",
    ("cylinder", 3): "153f1401e1fa0aefbe499d4d2bb866c95e3f5ba35501d0bf0eb0542c5452c18f",
}


def pass_digest(workload, seed):
    """Run pass 0 of a workload as bench/worker.py does and hash it; a
    command whose exit code or check fails ends the test."""
    sys.path.insert(0, BENCH)
    try:
        from workloads import make_pass
    finally:
        sys.path.remove(BENCH)
    from dansurf.cli import dispatch

    digest = hashlib.sha256()
    for group in make_pass(workload, seed, 0):
        try:
            cmd = next(group)
            while True:
                code, out = dispatch(cmd.argv)
                assert code == cmd.code, (cmd.argv, code, out[:200])
                assert cmd.check is None or cmd.check(out) is None, (cmd.argv, out[:200])
                digest.update(json.dumps([cmd.argv, code, out]).encode() + b"\n")
                cmd = group.send(out)
        except StopIteration:
            pass
        finally:
            group.close()
    return digest.hexdigest()


@pytest.mark.skipif(not os.path.exists(WORKLOADS), reason="bench/workloads.py is absent")
@pytest.mark.parametrize("workload, seed", sorted(DIGESTS), ids=lambda v: str(v))
def test_pass_zero_digest_is_pinned(workload, seed):
    assert pass_digest(workload, seed) == DIGESTS[workload, seed]
