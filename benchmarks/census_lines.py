"""Line census: which statement lines of ``src/repro/`` the repo's commands
reach.

usage:
    census_lines.py trace TREE OUT_DIR [--set N ...] [--only NAME ...]
    census_lines.py table TREE OUT_DIR [--verdicts OLD_CENSUS]
    census_lines.py --check

``trace`` runs every command of ``COMMANDS`` (three traffic sets) in
``TREE`` under a ``sitecustomize.py`` that installs ``sys.settrace`` and
``threading.settrace`` in every interpreter the command starts (harness
replicas are fresh subprocesses; gateway workers are forked and inherit
it).  Every first-seen ``(file, line)`` under ``src/repro/`` is appended
with ``os.write`` to one ``O_APPEND`` file per command, with the pytest
test running at the time, so a SIGKILLed or ``os._exit``-ing worker loses
nothing; each command's wall time goes to ``OUT_DIR/times.tsv``.

``table`` prints the census: one row per function of ``TREE/src/repro``
(methods and nested functions on their own rows), its statement count, how
many statements each class holds (*kept*: reached by set 1 or 2; *seam*:
by set 3 only; *none*: by nothing) and the line numbers of the seam and
none statements.  A statement is a line of a function body that opens a
statement (a multi-line statement counts once; docstrings are not
statements, nor are a bare ``...`` and ``global`` / ``nonlocal``, which
compile to nothing; a nested ``def`` is one statement of its parent); it
counts as reached when any line of its header ran.  ``--verdicts`` carries the
verdict words of an earlier archive over, by row key.

``--check`` (stdlib ``ast`` only, no tracing) exits 1 when a function of
the working tree has no row in ``benchmarks/results/CENSUS_lines.txt``,
when a row names a function the tree no longer has and its verdict is
not ``deleted`` or ``moved``, or when such a row's function is still
there.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ARCHIVE = HERE / "results" / "CENSUS_lines.txt"

SITECUSTOMIZE = '''\
import os
import sys
import threading

_OUT = os.environ.get("CENSUS_OUT")
if _OUT:
    _fd = os.open(_OUT, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()
    _wanted = {}
    _env = os.environ

    def _note(key):
        _seen.add(key)
        test = _env.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
        os.write(_fd, f"{key[0]}:{key[1]}\\t{test}\\n".encode())

    def _local(frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if key not in _seen:
                _note(key)
        return _local

    def _global(frame, event, arg):
        name = frame.f_code.co_filename
        hit = _wanted.get(name)
        if hit is None:
            hit = _wanted[name] = "/src/repro/" in name
        if not hit:
            return None
        return _local

    threading.settrace(_global)
    sys.settrace(_global)
'''

#: A small corpus for the README's CLI commands.
_ARTICLES = (
    "mkdir -p articles && "
    "printf 'the cat sat on the mat\\n' > articles/a.txt && "
    "printf 'a dog chased the cat and the mouse\\n' > articles/b.txt && "
    "printf 'cat and dog and mouse\\n' > articles/c.txt && "
    "printf 'the mouse ran from the cat\\n' > articles/d.txt"
)

_PAPER_BENCHES = (
    "benchmarks/bench_fig*.py benchmarks/bench_table*.py "
    "benchmarks/bench_related_work.py"
)

#: (traffic set, name, shell command run in TREE with PYTHONPATH=src).
#: Set 1: every CI command, the examples, every bench file and the CLI
#: commands README documents.  Set 2: the harness's four workloads at full
#: length and the byte-identity probe.  Set 3: tier-1.
COMMANDS = (
    (1, "ci-tokenizer-deep",
     "python -m pytest -q -m slow tests/text/test_tokenizer_differential.py"),
    (1, "ci-examples",
     "for s in examples/*.py; do python \"$s\" > /dev/null || exit 1; done"),
    (1, "ci-save-path",
     "rm -rf census_work && mkdir -p census_work/docs && "
     "printf 'the cat sat\\n' > census_work/docs/a.txt && "
     "printf 'a dog ran\\n' > census_work/docs/b.txt && "
     "printf 'cat and dog\\n' > census_work/docs/c.txt && "
     "python -m repro index census_work/docs -o census_work/snap.dstx && "
     "python -m repro index census_work/docs -o census_work/snap.dstx && "
     "python -m repro query census_work/snap.dstx cat"),
    (1, "ci-serving",
     "python -m repro serve-bench --readers 4 --cycles 20 --delete-every 9 "
     "--inject-faults --fault-rate 0.02 --differential "
     "--json census_work/bench.json"),
    (1, "ci-serving-sharded",
     "python -m repro serve-bench --readers 4 --cycles 20 --delete-every 9 "
     "--inject-faults --fault-rate 0.02 --shards 4 --differential "
     "--json census_work/bench.json"),
    (1, "ci-memtier",
     "python -m repro serve-bench --read-tier immediate --background-merge "
     "--readers 4 --cycles 12 --docs-per-batch 30 --delete-every 9 "
     "--differential --inject-faults --fault-rate 0.02 "
     "--json census_work/bench.json"),
    (1, "ci-memtier-sharded",
     "python -m repro serve-bench --read-tier immediate --background-merge "
     "--shards 3 --readers 4 --cycles 12 --docs-per-batch 30 "
     "--delete-every 9 --differential --inject-faults --fault-rate 0.02 "
     "--json census_work/bench.json"),
    (1, "ci-gateway-open",
     "python -m repro serve-bench --gateway --shards 4 --readers 4 "
     "--cycles 12 --delete-every 9 --differential --arrival open "
     "--arrival-rate 500 --arrival-queries 2000 "
     "--json census_work/bench.json"),
    (1, "ci-gateway-replicated",
     "python -m repro serve-bench --gateway --shards 4 --replicas 2 "
     "--readers 4 --cycles 12 --delete-every 9 --differential "
     "--grow-buckets --json census_work/bench.json"),
    (1, "ci-gateway-rebalance",
     "python -m repro serve-bench --gateway --shards 4 --replicas 2 "
     "--readers 4 --cycles 14 --delete-every 9 --doc-skew 2.5 --rebalance "
     "--rebalance-threshold 1.3 --differential --json census_work/bench.json"),
    (1, "ci-gateway-memtier-rebalance",
     "python -m repro serve-bench --gateway --shards 2 --replicas 2 "
     "--read-tier immediate --readers 4 --cycles 10 --delete-every 9 "
     "--differential --doc-skew 2.5 --rebalance --rebalance-threshold 1.3 "
     "--json census_work/bench.json"),
    (1, "ci-harness-quick", "python benchmarks/harness/run.py --quick"),
    (1, "ci-ingest-probe",
     "python benchmarks/ingest_probe.py --seconds 2 --repeat 1"),
    (1, "ci-estimator-tests", "python -m pytest -q benchmarks/harness/tests"),
    (1, "ci-faults",
     "python -m repro experiment --days 4 --scale 0.05 --inject-faults "
     "--fault-rate 0.3"),
    (1, "ci-faults-two-policies",
     "python -m repro experiment --days 4 --scale 0.05 --policy new:z "
     "--policy whole:z --inject-faults --fault-rate 0.3"),
    # pytest-benchmark suspends sys.settrace around a timed call unless
    # it is disabled, so the benches run with --benchmark-disable.
    (1, "benches-paper",
     f"REPRO_SCALE=1 python -m pytest -q -m slow --benchmark-disable "
     f"{_PAPER_BENCHES}"),
    (1, "benches-ext",
     "REPRO_SCALE=1 python -m pytest -q -m slow --benchmark-disable "
     "benchmarks/bench_ext_*.py"),
    (1, "readme-cli",
     f"{_ARTICLES} && "
     "python -m repro index articles -o news.dstx --policy recommended-new "
     "--positional && "
     "python -m repro query news.dstx 'cat AND dog' && "
     "python -m repro query news.dstx 'cat mouse' --near 5 && "
     "python -m repro query news.dstx 'the cat' --phrase && "
     "python -m repro check news.dstx && "
     "python -m repro stats --days 4 --scale 0.05 && "
     "python -m repro experiment --policy whole:z:proportional:1.2 "
     "--exercise && "
     "python -m repro experiment --policy new:z --policy whole:z "
     "--policy fill:z --exercise && "
     "python -m repro experiment --days 8 --scale 0.2 --inject-faults "
     "--fault-rate 0.05 --fault-seed 0 && "
     "python -m repro figure fig8 && python -m repro figure fig13"),
    (2, "harness-full",
     "python benchmarks/harness/run.py --out census_work/harness.json"),
    (2, "harness-traced",
     "python benchmarks/harness/run.py --trace 1 --quick"),
    (2, "sha-probe", "python benchmarks/sha_probe.py 1994 8128"),
    (3, "tier1", "python -m pytest -q -p no:cacheprovider"),
)

#: Verdicts of rows whose function left src/ on purpose.
GONE = ("deleted", "moved")

KEEP_RULE = """\
Keep-rule (printed before the table).  Each
statement of a function body under src/repro/ falls into one class:
  kept   reached by set 1 (commands) or set 2 (harness): stays.
  seam   reached by set 3 (tier-1) only, named with the first test that
         reaches it.  It stays only when no fixture reaches the behaviour
         (a test oracle, a fault or crash hook, a test's own toy size)
         and only when rewiring its tests adds no tier-1 time; otherwise
         it goes, and its tests reach the behaviour through what stays.
  none   reached by nothing: deleted.  An error branch a test could reach
         is the exception: it gets its test in the same change, or is
         listed for ROADMAP item 2(b).
Safety code stays whatever its class: input validation, error handling,
durability, fault detection and test oracles (BruteForceIndex,
reference_*).  The tool marks a statement *safety* when it is a raise or
an assert, an if whose body starts with a raise, or part of an except
handler.  A helper moved under tests/ is not a deletion.  The in-process
split twin and the modules EXPERIMENTS.md cites stay (ROADMAP, Settled).
Row: key  statements = kept/seam/none  seam and none lines; the first
tests reaching the seam | verdict.  Verdicts: kept; safety (every
non-kept statement is safety code; "none listed for 2(b)" when some is
reached by nothing); seam: why it stays; undecided (a seam this
census does not decide); deleted (and why);
tested (a new test reaches its none lines); moved (to tests/).\
"""


# -- tracing ---------------------------------------------------------------


def trace(tree: pathlib.Path, out: pathlib.Path, sets, only) -> int:
    site = out / "site"
    lines = out / "lines"
    site.mkdir(parents=True, exist_ok=True)
    lines.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    failed = 0
    for traffic, name, command in COMMANDS:
        if (sets and traffic not in sets) or (only and name not in only):
            continue
        target = lines / f"{traffic}-{name}.txt"
        (tree / "census_work").mkdir(exist_ok=True)
        if target.exists():
            target.unlink()
        env = dict(
            os.environ,
            PYTHONPATH=f"{site}{os.pathsep}{tree / 'src'}",
            CENSUS_OUT=str(target),
        )
        start = time.monotonic()
        code = subprocess.call(
            ["bash", "-c", command], cwd=tree, env=env,
            stdout=subprocess.DEVNULL,
        )
        elapsed = time.monotonic() - start
        failed += code != 0
        with open(out / "times.tsv", "a") as fp:
            fp.write(f"{traffic}\t{name}\t{elapsed:.1f}\t{code}\t{command}\n")
        print(f"set {traffic} {name}: {elapsed:.1f} s, exit {code}")
    return 1 if failed else 0


# -- the function map ------------------------------------------------------


def _statements(func) -> list[tuple[int, int, bool]]:
    """(first, last header line, safety) of every statement of ``func``'s
    body; nested defs and classes contribute their def line only.  A
    statement is *safety* when it is a ``raise`` or an ``assert``, an
    ``if`` whose body starts with a ``raise``, or part of an ``except``
    handler."""
    out = []

    def visit(stmts, in_handler):
        for stmt in stmts:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and (
                    isinstance(stmt.value.value, str)
                    or stmt.value.value is Ellipsis
                )
            ):
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                out.append((stmt.lineno, stmt.lineno, in_handler))
                continue
            blocks = [
                getattr(stmt, field, None) or []
                for field in ("body", "orelse", "finalbody")
            ]
            handlers = [h.body for h in getattr(stmt, "handlers", None) or []]
            blocks += [c.body for c in getattr(stmt, "cases", None) or []]
            starts = [
                b[0].lineno for b in blocks + handlers
                if b and hasattr(b[0], "lineno")
            ]
            end = min(starts) - 1 if starts else stmt.end_lineno
            safety = (
                in_handler
                or isinstance(stmt, (ast.Raise, ast.Assert))
                or isinstance(stmt, ast.If)
                and isinstance(stmt.body[0], ast.Raise)
            )
            out.append((stmt.lineno, max(end, stmt.lineno), safety))
            for block in blocks:
                visit(
                    [s for s in block if isinstance(s, ast.stmt)], in_handler
                )
            for block in handlers:
                visit(block, True)

    visit(func.body, False)
    return out


def functions(src: pathlib.Path) -> dict[str, list[tuple[int, int, bool]]]:
    """``path::Qual.name`` -> its statements, for every function of the
    package under ``src``."""
    table: dict[str, list[tuple[int, int, bool]]] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent.parent).as_posix()
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + [child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + [child.name]
                    key = f"{rel}::{'.'.join(qual)}"
                    table.setdefault(key, []).extend(_statements(child))
                    walk(child, qual)
                elif not isinstance(child, ast.Lambda):
                    walk(child, prefix)

        walk(tree, [])
    return table


# -- the table -------------------------------------------------------------


def _read_lines(lines_dir: pathlib.Path, root: pathlib.Path):
    """{set: {(rel path, line): first test}} from the tracer's files."""
    reached: dict[int, dict[tuple[str, int], str]] = {1: {}, 2: {}, 3: {}}
    prefix = str(root.resolve()) + "/"
    for path in sorted(lines_dir.glob("*.txt")):
        traffic = int(path.name.split("-", 1)[0])
        seen = reached[traffic]
        for raw in path.read_text().splitlines():
            where, _, test = raw.partition("\t")
            name, _, line = where.rpartition(":")
            name = os.path.realpath(name)
            if not name.startswith(prefix):
                continue
            seen.setdefault((name[len(prefix):], int(line)), test)
    return reached


def _span(numbers: list[int]) -> str:
    out, run = [], []
    for n in numbers:
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ",".join(
        str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out
    )


def read_archive(path: pathlib.Path) -> dict[str, str]:
    """Row key -> verdict, from an archived census."""
    rows = {}
    for raw in path.read_text().splitlines():
        if raw.startswith("src/repro/") and "::" in raw:
            key = raw.split()[0]
            verdict = raw.split(" | ")[-1].strip() if " | " in raw else ""
            rows[key] = verdict
    return rows


def table(tree: pathlib.Path, out: pathlib.Path, verdicts) -> int:
    funcs = functions(tree / "src" / "repro")
    reached = _read_lines(out / "lines", tree)
    totals = {"kept": 0, "seam": 0, "none": 0}
    rows = []
    for key, stmts in funcs.items():
        rel = key.split("::")[0]
        counts = {"kept": 0, "seam": 0, "none": 0}
        seams, nones, tests = [], [], []
        only_safety = True
        for first, last, safety in stmts:
            span = [(rel, n) for n in range(first, last + 1)]
            if any(s in reached[1] or s in reached[2] for s in span):
                counts["kept"] += 1
                continue
            only_safety = only_safety and safety
            if any(s in reached[3] for s in span):
                counts["seam"] += 1
                seams.append(first)
                test = next(reached[3][s] for s in span if s in reached[3])
                if test and test not in tests:
                    tests.append(test)
            else:
                counts["none"] += 1
                nones.append(first)
        for name in counts:
            totals[name] += counts[name]
        detail = []
        if seams:
            detail.append(f"seam {_span(seams)}")
        if nones:
            detail.append(f"none {_span(nones)}")
        if tests:
            detail.append("by " + ", ".join(tests[:2]))
        if key in verdicts:
            verdict = verdicts[key]
        elif not seams and not nones:
            verdict = "kept"
        elif only_safety:
            verdict = "safety" + (": none listed for 2(b)" if nones else "")
        else:
            verdict = "?"
        numbers = (
            f"{len(stmts)} = {counts['kept']}/{counts['seam']}/"
            f"{counts['none']}"
        )
        rows.append(
            f"{key}  {numbers}  " + "; ".join(detail) + f" | {verdict}"
        )
    print("The tracer (the sitecustomize.py `trace` writes):")
    print()
    for line in SITECUSTOMIZE.splitlines():
        print(f"    {line}" if line else "")
    print()
    print("The commands (set, name, seconds traced, exit status, command):")
    for raw in (out / "times.tsv").read_text().splitlines():
        traffic, name, seconds, code, command = raw.split("\t")
        print(f"  {traffic}  {name:<30} {float(seconds):7.1f} s  exit {code}")
        print(f"       {command}")
    print()
    print(KEEP_RULE)
    print()
    print(
        f"{sum(totals.values())} statements: {totals['kept']} kept, "
        f"{totals['seam']} seam, {totals['none']} none"
    )
    print()
    for row in rows:
        print(row.replace("   | ", "  | "))
    return 0


# -- the CI gate -----------------------------------------------------------


def check(root: pathlib.Path) -> int:
    rows = read_archive(ARCHIVE)
    keys = set(functions(root / "src" / "repro"))
    missing = sorted(k for k in keys if k not in rows)
    gone = sorted(
        k for k, verdict in rows.items()
        if k not in keys and not verdict.startswith(GONE)
    )
    lingering = sorted(
        k for k, verdict in rows.items()
        if k in keys and verdict.startswith(GONE)
    )
    for key in missing:
        print(f"no census row: {key}")
    for key in gone:
        print(f"row names a function the tree no longer has: {key}")
    for key in lingering:
        print(f"deleted or moved row still in the tree: {key}")
    print(
        f"census check: {len(keys)} functions in the tree, {len(missing)} "
        f"without a row, {len(gone)} rows without a function, "
        f"{len(lingering)} deleted rows still present"
    )
    return 1 if missing or gone or lingering else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("mode", nargs="?", choices=("trace", "table"))
    parser.add_argument("tree", nargs="?")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--set", type=int, action="append", default=[])
    parser.add_argument("--only", action="append", default=[])
    parser.add_argument("--verdicts", default=None)
    args = parser.parse_args(argv)
    if args.check:
        return check(HERE.parent)
    if not (args.mode and args.tree and args.out):
        parser.error("trace and table need TREE and OUT_DIR")
    tree = pathlib.Path(args.tree).resolve()
    out = pathlib.Path(args.out).resolve()
    if args.mode == "trace":
        return trace(tree, out, set(args.set), set(args.only))
    verdicts = read_archive(pathlib.Path(args.verdicts)) if args.verdicts else {}
    return table(tree, out, verdicts)


if __name__ == "__main__":
    sys.exit(main())
