"""Run the state codec over one fixed corpus at a parent commit and in the working tree,
and compare what each prints, case by case.

    python3 tools/codec_diff.py --parent HEAD

Run from the repository root. The parent commit is exported as
``tools/bench_pairs.py`` exports it, into a temporary directory that is removed
afterwards. In each checkout, a child interpreter with that checkout's ``src``
first on its import path prints one line per case, for these corpora:

- every truncation of ``GOLDEN_HEX``, the pinned record over every type tag in
  ``tests/test_wire.py``, decoded with its schema
- ``MUTATIONS`` seeded mutations of it (one to three bytes replaced), decoded the
  same way
- ``RECORDS`` seeded records (``random_record`` of ``tests/conftest.py``), each
  encoded, measured and decoded again
- the truncations and the mutations again, each decoded through one warm
  ``Schema``, kept across all of them and made to decode ``GOLDEN_HEX`` first,
  so a codec that keeps what it read meets every damaged input

Both sides read the corpus from the working tree's tests. A line is a digest of
the case's bytes, or the type and message of the error it raised. The exit code
is 1 at the first line that differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = 20_000
RECORDS = 3_000


def _outcome(case: Callable[[], bytes]) -> str:
    """A digest of what ``case`` returns, or the type and message of what it raised."""
    try:
        return hashlib.sha256(case()).hexdigest()[:32]
    except Exception as exc:  # every error is an outcome to compare, whatever its type
        return f"{type(exc).__name__}: {exc}"


def cases(mutations: int = MUTATIONS, records: int = RECORDS) -> Iterator[str]:
    """One line per case, from the ``agentway`` and the tests first on the import path."""
    from agentway import wire
    from conftest import random_record
    from test_wire import GOLDEN_FIELDS, GOLDEN_HEX

    def decoded(data: bytes, schema) -> Callable[[], bytes]:
        def case() -> bytes:
            record = wire.decode_state(data, schema)
            return repr((record.kind_name, record.namespace, record.values)).encode()
        return case

    golden = bytes.fromhex(GOLDEN_HEX)

    def damaged() -> Iterator[tuple[str, bytes]]:
        for n in range(len(golden) + 1):
            yield f"truncation {n}", golden[:n]
        rng = random.Random(18)
        for i in range(mutations):
            data = bytearray(golden)
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            yield f"mutation {i}", bytes(data)

    for name, data in damaged():  # a list schema: a fresh codec for every case
        yield f"{name}: {_outcome(decoded(data, GOLDEN_FIELDS))}"
    rng = random.Random(42)
    for i in range(records):
        record = random_record(rng)

        def case() -> bytes:
            data = wire.encode_state(record)
            sizes = wire.measure_state(record)
            back = wire.decode_state(data, record.fields)
            return data + repr((sizes, back.kind_name, back.namespace, back.values)).encode()

        yield f"record {i}: {_outcome(case)}"
    warm = wire.Schema(GOLDEN_FIELDS)
    wire.decode_state(golden, warm)
    for name, data in damaged():
        yield f"warm {name}: {_outcome(decoded(data, warm))}"


def checkout_lines(checkout: Path) -> list[str]:
    """The case lines that ``checkout``'s codec prints, in a child interpreter."""
    path = os.pathsep.join(str(p) for p in (checkout / "src", ROOT / "tests", ROOT / "tools"))
    code = "import codec_diff, sys; sys.stdout.writelines(line + '\\n' for line in codec_diff.cases())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    return proc.stdout.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import export_commit

    with tempfile.TemporaryDirectory(prefix="codec_diff_") as workdir:
        parent_sha = export_commit(args.parent, Path(workdir))
        parent = checkout_lines(Path(workdir))
    change = checkout_lines(ROOT)
    for i, (p, c) in enumerate(zip(parent, change)):
        if p != c:
            print(f"line {i + 1} differs:\n  parent {parent_sha[:12]}: {p}\n  change: {c}")
            return 1
    if len(parent) != len(change):
        print(f"parent printed {len(parent)} lines, change {len(change)}")
        return 1
    print(f"{len(change)} lines identical at parent {parent_sha[:12]} and the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
