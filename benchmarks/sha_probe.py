"""Byte-identity probe: the saved ``paper-batch`` index's sha256, and
every ``serve-inproc`` publish against its full clone.

Builds the ``paper-batch`` index exactly as the harness script does (the
seed, 20 s), saves it with ``TextDocumentIndex.save`` and prints its
size and sha256.  A change that claims to leave the index's contents and
layout alone keeps these digests; CI's ``bench-smoke`` job checks them.

It then replays the ``serve-inproc`` script's writes through its
``QueryService``.  Every published snapshot must save to the bytes of
``writer_index.clone()`` at its boundary, and every snapshot must still
save to that digest when the script ends: a publish shares the writer's
short-list payloads, and nothing the writer does later may reach them.

    python3 benchmarks/sha_probe.py            # seeds 1994 and 8128
    python3 benchmarks/sha_probe.py 1994       # one seed

Exits 1 when a seed with an archived digest gives another one, or when
a snapshot saves to other bytes than its full clone.  Run from the
repository root; standard library only.
"""

import hashlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "harness"))

from workloads import paper_batch, serve_inproc  # noqa: E402

#: seed -> sha256 of the saved index (benchmarks/results/BENCH_tokenizer.txt).
ARCHIVED = {
    1994: "e83931e46c37ce878225778bc48c8bdf254c7d73227ba07d2b62b9dc12cd1ef2",
    8128: "d1d504798623ae7fb38403e06075b802ce478704a3c9d1e56ba201d46727995a",
}


def saved(index) -> bytes:
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


def digest_of(index) -> str:
    return hashlib.sha256(saved(index)).hexdigest()


def probe(seed: int) -> str:
    workload = paper_batch(seed, 20.0, lambda: None)
    index = workload.build()
    for step in workload.steps:
        if step.kind == "add":
            index.add_document(step.arg)
        elif step.kind == "flush":
            index.flush_batch()
    data = saved(index)
    digest = hashlib.sha256(data).hexdigest()
    print(
        f"seed {seed}: {index.ndocs} docs, {len(data)} bytes, "
        f"sha256 {digest}"
    )
    return digest


def probe_publishes(seed: int) -> int:
    """Replay ``serve-inproc``'s writes; the number of publishes whose
    snapshot saved, then or at the end, to other bytes than the
    writer's full clone at that boundary."""
    started = time.perf_counter()
    workload = serve_inproc(seed, 20.0, lambda: None)
    service = workload.build()
    published = []  # (snapshot index, digest of its boundary's full clone)
    bad = 0
    for step in workload.steps:
        if step.kind == "add":
            service.add_document(step.arg)
        elif step.kind == "delete":
            service.delete_document(step.arg)
        elif step.kind == "flush":
            _, snapshot = service.flush_and_publish()
            digest = digest_of(service.writer_index.clone())
            if digest_of(snapshot.index) != digest:
                print(f"seed {seed}: publish {len(published) + 1} differs "
                      "from its full clone", file=sys.stderr)
                bad += 1
            published.append((snapshot.index, digest))
    for n, (index, digest) in enumerate(published, 1):
        if digest_of(index) != digest:
            print(f"seed {seed}: publish {n} changed after it was "
                  "published", file=sys.stderr)
            bad += 1
    print(
        f"seed {seed}: serve-inproc, {len(published)} publishes "
        f"({service.stats.cow_publishes} cow), {bad} mismatched, "
        f"{time.perf_counter() - started:.1f} s"
    )
    return bad


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or sorted(ARCHIVED)
    status = 0
    for seed in seeds:
        digest = probe(seed)
        expected = ARCHIVED.get(seed)
        if expected is not None and digest != expected:
            print(f"seed {seed}: expected sha256 {expected}", file=sys.stderr)
            status = 1
        if probe_publishes(seed):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
