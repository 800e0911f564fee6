"""Byte-identity probe: the saved ``paper-batch`` index's sha256.

Builds the ``paper-batch`` index exactly as the harness script does (the
seed, 20 s), saves it with ``TextDocumentIndex.save`` and prints its
size and sha256.  A change that claims to leave the index's contents and
layout alone keeps these digests; CI's ``bench-smoke`` job checks them.

    python3 benchmarks/sha_probe.py            # seeds 1994 and 8128
    python3 benchmarks/sha_probe.py 1994       # one seed

Exits 1 when a seed with an archived digest gives another one.  Run from
the repository root; standard library only.
"""

import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "harness"))

from workloads import paper_batch  # noqa: E402

#: seed -> sha256 of the saved index (benchmarks/results/BENCH_tokenizer.txt).
ARCHIVED = {
    1994: "e83931e46c37ce878225778bc48c8bdf254c7d73227ba07d2b62b9dc12cd1ef2",
    8128: "d1d504798623ae7fb38403e06075b802ce478704a3c9d1e56ba201d46727995a",
}


def probe(seed: int) -> str:
    workload = paper_batch(seed, 20.0, lambda: None)
    index = workload.build()
    for step in workload.steps:
        if step.kind == "add":
            index.add_document(step.arg)
        elif step.kind == "flush":
            index.flush_batch()
    buf = io.BytesIO()
    index.save(buf)
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    print(
        f"seed {seed}: {index.ndocs} docs, {len(buf.getvalue())} bytes, "
        f"sha256 {digest}"
    )
    return digest


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or sorted(ARCHIVED)
    status = 0
    for seed in seeds:
        digest = probe(seed)
        expected = ARCHIVED.get(seed)
        if expected is not None and digest != expected:
            print(f"seed {seed}: expected sha256 {expected}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
