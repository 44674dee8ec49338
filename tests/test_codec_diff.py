"""The codec differential's case generator, run on a small corpus against the working tree."""

import hashlib
import importlib.util
from pathlib import Path

from agentway import wire
from test_wire import GOLDEN_FIELDS, GOLDEN_HEX

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codec_diff.py"
_spec = importlib.util.spec_from_file_location("codec_diff", TOOL)
codec_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codec_diff)


def test_the_cases_are_seeded_and_cover_each_corpus():
    lines = list(codec_diff.cases(mutations=200, records=50))
    assert lines == list(codec_diff.cases(mutations=200, records=50))
    golden = bytes.fromhex(GOLDEN_HEX)
    n = len(golden)
    assert len(lines) == 2 * (n + 1 + 200) + 50
    assert lines[0] == "truncation 0: TruncatedError: need 2 bytes at offset 0, have 0"
    whole = wire.decode_state(golden, GOLDEN_FIELDS)
    digest = hashlib.sha256(repr((whole.kind_name, whole.namespace, whole.values)).encode()).hexdigest()
    assert lines[n] == f"truncation {n}: {digest[:32]}"
    mutated = [line.split(": ", 1)[1] for line in lines[n + 1 : n + 201]]
    assert lines[n + 1].startswith("mutation 0: ") and lines[n + 200].startswith("mutation 199: ")
    assert any("Error: " in m for m in mutated) and any("Error: " not in m for m in mutated)
    records = lines[n + 201 : n + 251]
    assert [line.split(":")[0] for line in records] == [f"record {i}" for i in range(50)]
    assert not any("Error: " in line for line in records)  # every seeded record round-trips
    # the damaged corpora again through one warm schema: the same outcomes, case by case
    assert lines[n + 251 :] == [f"warm {line}" for line in lines[: n + 201]]


def test_an_outcome_is_a_digest_or_the_error():
    assert codec_diff._outcome(lambda: b"abc") == hashlib.sha256(b"abc").hexdigest()[:32]
    assert codec_diff._outcome(lambda: wire.decode_state(b"", [])) == (
        "TruncatedError: need 2 bytes at offset 0, have 0")
