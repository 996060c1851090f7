"""Mutation gate: each recorded fault in `src/timelyhls` must fail the tests named with it.

Run `python3 tests/mutants.py`. For each record the script copies
`src/` into a temporary directory, replaces the record's old text (which
must occur exactly once in its file) with its new text, and runs the
record's tests with `pytest -x -q` against the copy, from the temporary
directory, at a fixed Hypothesis seed. A mutant is killed when pytest reports a failing test (exit 1) and
survives when every test passes. The script exits 1 and names each
survivor, each record whose old text does not occur exactly once, and
each run that ended any other way (a collection error, a timeout); it
exits 0 when every mutant is killed. Stdlib only, apart from the pytest
that runs the tests.

Removing a record is removing a test: say which and why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # under src/timelyhls
    old: str
    new: str
    tests: tuple[str, ...]  # test files or node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "violation line at an equal II",
        "toolchain.py",
        "if ii is not None and m.ii > ii:",
        "if ii is not None and m.ii >= ii:",
        ("tests/test_toolchain.py",),
    ),
    Mutant(
        "search ignores overflow",
        "dse.py",
        "        violations = late(levels) + (ff > cap_ff) + (lut > cap_lut) + (dsp > cap_dsp)\n"
        "        violations += bram > cap_bram\n",
        "        violations = late(levels)\n",
        ("tests/test_dse.py",),
    ),
    Mutant(
        "search counts a WNS of -0.01 as met",
        "dse.py",
        "_wns_cents(levels, target, clock_ns) < 0)",
        "_wns_cents(levels, target, clock_ns) < -1)",
        ("tests/test_dse.py",),
    ),
    Mutant(
        "leaf key drops the one-rung (fixed) partition factors",
        "toolchain.py",
        "pipelined_key = itemgetter(leaf_ii_at, unroll_at[-1], *partition_at)",
        "pipelined_key = itemgetter(leaf_ii_at, unroll_at[-1], "
        "*[k for k in partition_at if len(rungs[k]) > 1])",
        ("tests/test_dse.py",),
    ),
    Mutant(
        "enclosing loops add no depth",
        "toolchain.py",
        "offset = loop.trip_count * offset + loop.depth",
        "offset = loop.trip_count * offset",
        ("tests/test_toolchain.py",),
    ),
    Mutant(
        "BRAM partitioning clamped to the element count",
        "toolchain.py",
        "// (BRAM_BITS * partition_factor)) * partition_factor",
        "// (BRAM_BITS * partition_factor)) * min(partition_factor, array.elements)",
        ("tests/test_toolchain.py",),
    ),
    Mutant(
        "requested II above 1 ignored",
        "toolchain.py",
        "return max(requested, floor, loop.carried_dependence_distance, 1)",
        "return max(min(requested, 1), floor, loop.carried_dependence_distance, 1)",
        ("tests/test_toolchain.py",),
    ),
    Mutant(
        "achieved II ignores the carried dependence",
        "toolchain.py",
        "return max(requested, floor, loop.carried_dependence_distance, 1)",
        "return max(requested, floor, 1)",
        ("tests/test_toolchain.py",),
    ),
    Mutant(
        "bm25 weights without length normalisation",
        "kb.py",
        "/ (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lengths[doc_id] / avg))",
        "/ (tf + BM25_K1)",
        ("tests/test_kb.py",),
    ),
    Mutant(
        "a loop the space leaves out is pipelined",
        "dse.py",
        "fixed = (None,) + tuple(l.unroll_factor for l in loops)",
        "fixed = (1,) + tuple(l.unroll_factor for l in loops)",
        ("tests/test_dse.py",),
    ),
    Mutant(
        "loop_ii table columns swapped",
        "bench.py",
        '"loop_ii": ("Benchmark", "Part", "Base II", "Optimized II"),',
        '"loop_ii": ("Benchmark", "Part", "Optimized II", "Base II"),',
        ("tests/test_bench.py",),
    ),
    Mutant(
        "array_partition dim parsed into factor",
        "hls_source.py",
        '"dim": "dim",',
        '"dim": "factor",',
        ("tests/test_hls_source.py",),
    ),
    Mutant(
        "pragmas read from every physical line again",
        "hls_source.py",
        "    for line_no, line in directives:\n",
        '    for line_no, line in enumerate(text.split("\\n"), start=1):\n',
        ("tests/test_hls_source.py::TestDirectiveLines::test_pragma_inside_comment_or_literal_is_no_directive",),
    ),
    Mutant(
        "device list may be an object",
        "kb.py",
        "if not isinstance(raw, list):",
        "if not isinstance(raw, (list, dict)):",
        ("tests/test_kb.py",),
    ),
    Mutant(
        "unknown op names accepted",
        "toolchain.py",
        "unknown = sorted(loop.op_counts.keys() - OP_DEPTH.keys())",
        "unknown = []",
        ("tests/test_cli.py::TestMalformedInputs",),
    ),
    Mutant(
        "scripted, simulated matrix keeps --jobs threads",
        "cli.py",
        "return cfg.jobs if waits_outside or not gil_enabled else 1",
        "return cfg.jobs",
        ("tests/test_cli.py::TestMatrixWorkers::test_scripted_simulated_cells_run_on_one_thread",
         "tests/test_cli.py::TestMatrixWorkers::test_external_matrix_is_the_same_at_any_jobs"),
    ),
    Mutant(
        "every matrix runs on one thread",
        "cli.py",
        "return cfg.jobs if waits_outside or not gil_enabled else 1",
        "return 1",
        ("tests/test_cli.py::TestMatrixWorkers::test_scripted_simulated_cells_run_on_one_thread",
         "tests/test_cli.py::TestMatrixWorkers::test_external_matrix_is_the_same_at_any_jobs"),
    ),
    Mutant(
        "device names of any JSON type",
        "kb.py",
        'bad = [name for name in ("family", "part", "tier") if not isinstance(getattr(target, name), str)]',
        "bad = []",
        ("tests/test_kb.py",),
    ),
    Mutant(
        "docs indexed in the order given",
        "kb.py",
        "docs = sorted(docs, key=lambda d: d.id)",
        "docs = list(docs)",
        ("tests/test_kb.py::TestRetrieve::test_sorted_by_score_then_id",
         "tests/test_kb.py::TestBm25::test_bundled_kb_ranks_as_the_reference"),
    ),
    Mutant(
        "tool output decoded strictly",
        "toolchain.py",
        'encoding="utf-8",\n                errors="replace",\n',
        'encoding="utf-8",\n',
        ("tests/test_toolchain.py::TestExternalAdapter",),
    ),
)


def run(mutant: Mutant, workdir: Path) -> str:
    """'killed', 'survived', or what else went wrong, for one mutant."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "timelyhls" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = subprocess.run(
        [sys.executable, "-c", "import timelyhls; print(timelyhls.__file__)"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if not probe.stdout.startswith(str(src)):
        return f"timelyhls imports from {probe.stdout.strip() or probe.stderr.strip()}, not the copy"
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *(str(ROOT / t) for t in mutant.tests)]
    try:
        proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout.strip() or proc.stderr.strip()).splitlines()[-1:]
    return f"pytest exit {proc.returncode}: {' '.join(tail)}"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in MUTANTS:
            start = time.monotonic()
            outcome = run(mutant, Path(tmp))
            print(f"{outcome:>8}  {time.monotonic() - start:5.1f} s  {mutant.name}", flush=True)
            if outcome != "killed":
                failures.append(f"{mutant.name}: {outcome}")
    if failures:
        print(f"\n{len(failures)} of {len(MUTANTS)} records not killed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
