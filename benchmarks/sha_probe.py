"""Byte-identity probe: the saved ``paper-batch`` index's sha256, every
``serve-inproc`` publish against its full clone, and every checkpoint
answer of the two gateway scripts.

Builds the ``paper-batch`` index exactly as the harness script does (the
seed, 20 s), saves it with ``TextDocumentIndex.save`` and prints its
size and sha256.  A change that claims to leave the index's contents and
layout alone keeps these digests; CI's ``bench-smoke`` job checks them.

It then replays the ``serve-inproc`` script's writes through its
``QueryService``.  Every published snapshot must save to the bytes of
``writer_index.clone()`` at its boundary, and every snapshot must still
save to that digest when the script ends: a publish shares the writer's
short-list payloads, and nothing the writer does later may reach them.

Last, it replays the writes of ``gateway-read`` (two shards, snapshot
tier) and ``gateway-write`` (one shard, immediate tier, deletions)
through one ``ShardWorker`` per shard, routed as the gateway routes
them, and plays the gateway's checkpoint round after every flush: a
record chained on the last token, a base when
``ReplicaSet.wants_base`` asks for one.  Every restore point must save
to the writer's own bytes, and the sha256 of all the answers' blobs
must be the archived one: a checkpoint writer that reuses encodings
across checkpoints must write what encoding from scratch writes.

    python3 benchmarks/sha_probe.py            # seeds 1994 and 8128
    python3 benchmarks/sha_probe.py 1994       # one seed

Exits 1 when a seed with an archived digest gives another one, when
a snapshot saves to other bytes than its full clone, or when a restore
point saves to other bytes than its writer.  Run from the repository
root; standard library only.
"""

import hashlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "harness"))

from repro.core.routing import Placement  # noqa: E402
from repro.service.replication import ReplicaSet  # noqa: E402
from repro.service.worker import ShardWorker, WorkerSpec  # noqa: E402
from repro.textindex import TextDocumentIndex  # noqa: E402
from workloads import WORKLOADS, paper_batch, serve_inproc  # noqa: E402

#: seed -> sha256 of the saved index (benchmarks/results/BENCH_tokenizer.txt).
ARCHIVED = {
    1994: "e83931e46c37ce878225778bc48c8bdf254c7d73227ba07d2b62b9dc12cd1ef2",
    8128: "d1d504798623ae7fb38403e06075b802ce478704a3c9d1e56ba201d46727995a",
}

#: (script, seed) -> sha256 of every checkpoint answer's blob in order,
#: each after its length as 8 little-endian bytes, as the writer that
#: encoded every short list from scratch wrote them.
CHECKPOINTS = {
    ("gateway-read", 1994):
        "7eb376173447317184d885b8a47ca33fe1d06bdb22cb39fcf68814ece8371f6a",
    ("gateway-write", 1994):
        "5edec63641d55fc5abe0c39ed5ea258162f9bf7d42cf8c634dc8c71de7203d26",
    ("gateway-read", 8128):
        "a1687b0b805ade3034af1a52c90f85eacfe1470f7dcbf2140d4ee539cc9ef41c",
    ("gateway-write", 8128):
        "ae4c8970160b0ea615f18e70c4c74c063d765af2454772a13ef1d61e67a99904",
}

#: The gateway scripts' shard counts and read tiers.
GATEWAYS = {"gateway-read": (2, "snapshot"), "gateway-write": (1, "immediate")}


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


def probe_checkpoints(name: str, seed: int) -> tuple[str, int]:
    """Replay ``name``'s writes through its shards' workers with the
    gateway's checkpoint round after every flush: ``(sha256 of every
    answer, restore points that saved to other bytes than the
    writer)``."""
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, 20.0, lambda: None)
    nshards, tier = GATEWAYS[name]
    placement = Placement(nshards, 0)
    workers = [
        ShardWorker(WorkerSpec(i, workload.ladder_config, read_tier=tier))
        for i in range(nshards)
    ]
    sets = [ReplicaSet(i, []) for i in range(nshards)]
    digest = hashlib.sha256()
    records = bad = 0
    for step in workload.steps:
        if step.kind == "add":
            doc_id, shard = placement.claim(None)
            workers[shard].add_document(step.arg, doc_id)
            placement.admit(doc_id)
        elif step.kind == "delete":
            workers[placement.owner(step.arg)].delete_document(step.arg)
        elif step.kind == "flush":
            for worker, rs in zip(workers, sets):
                worker.flush()
                compaction = rs.base is not None and rs.wants_base()
                reply = worker.checkpoint(None if compaction else rs.token)
                rs.adopt(reply)
                records += reply.record
                digest.update(len(reply.blob).to_bytes(8, "little"))
                digest.update(reply.blob)
                restored = TextDocumentIndex.restore(rs.base, rs.chain)
                if saved(restored) != saved(worker.writer):
                    print(f"seed {seed}: {name} shard {rs.shard_id} day "
                          f"{step.day}: the restore point differs from "
                          "its writer", file=sys.stderr)
                    bad += 1
    answers = sum(1 for step in workload.steps if step.kind == "flush")
    print(
        f"seed {seed}: {name}, {answers * nshards} checkpoints "
        f"({records} records), {bad} mismatched, sha256 "
        f"{digest.hexdigest()}, {time.perf_counter() - started:.1f} s"
    )
    return digest.hexdigest(), bad


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
        for name in GATEWAYS:
            digest, bad = probe_checkpoints(name, seed)
            expected = CHECKPOINTS.get((name, seed))
            if expected is not None and digest != expected:
                print(f"seed {seed}: {name}: expected sha256 {expected}",
                      file=sys.stderr)
                status = 1
            if bad:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
