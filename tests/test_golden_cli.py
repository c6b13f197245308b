"""Byte-for-byte CLI output on a fixed corpus (tests/golden_cli.json).

For each n the corpus holds a JSONL input made by `cycsynth random` with
fixed seeds and the exact stdout of `synth` (text and --format json),
`member --format json` and `tcount` on it.  Any change to the descent, the
emission or the output formats that alters a byte fails here.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import sys

import pytest

from cycsynth.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden_cli.json")
NS = (4, 6, 8, 12, 16, 30, 32)
CASES = ((0, 1), (7, 2), (20, 3))  # (T-count, seed)
COMMANDS = {
    "synth": ["synth"],
    "synth_json": ["synth", "--format", "json"],
    "member_json": ["member", "--format", "json"],
    "tcount": ["tcount"],
}


def _run(argv, stdin=""):
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        buf = io.StringIO()
        code = main(argv, out=buf)
    finally:
        sys.stdin = saved
    assert code == 0, argv
    return buf.getvalue()


def _random_lines(n):
    out = []
    for tcount, seed in CASES:
        text = _run(["random", "--n", str(n), "--target-tcount", str(tcount),
                     "--seed", str(seed)])
        out.append(text.splitlines()[0])
    return "\n".join(out) + "\n"


def build_corpus():
    corpus = {}
    for n in NS:
        entry = {"input": _random_lines(n)}
        for name, argv in COMMANDS.items():
            entry[name] = _run(argv + ["--n", str(n)], stdin=entry["input"])
        corpus[str(n)] = entry
    return corpus


def _load():
    with open(CORPUS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("n", NS)
def test_random_reproduces_corpus_input(n):
    assert _random_lines(n) == _load()[str(n)]["input"]


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_corpus(n, command):
    entry = _load()[str(n)]
    got = _run(COMMANDS[command] + ["--n", str(n)], stdin=entry["input"])
    assert got.encode() == entry[command].encode()


if __name__ == "__main__":
    with open(CORPUS, "w") as fh:
        json.dump(build_corpus(), fh, indent=1, sort_keys=True)
        fh.write("\n")
