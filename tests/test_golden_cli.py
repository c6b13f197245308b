"""Byte-for-byte CLI output on a fixed corpus (tests/golden_cli.json).

For each n the corpus holds a JSONL input made by `cycsynth random` with
fixed seeds and the exact stdout of `synth` (text and --format json),
`member --format json` and `tcount` on it.  Under "commands" it holds the
exit code and stdout of `synth --method ring` on those inputs and of the
number-theory commands (`phase-condition`, `check-finite-lemma`,
`fn-census`).  Any change to the descent, the ring route, the census, the
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
# (argv, n whose corpus input is stdin or None), keyed in the corpus by the
# joined argv; negative results (exit 1) are recorded like successes.
STANDALONE = tuple(
    [(["synth", "--method", "ring", "--n", str(n)], n) for n in (4, 6, 8, 12)]
    + [(["phase-condition", "--n", str(n)], None) for n in (2, 12, 14, 30, 486)]
    + [(["check-finite-lemma", "--n", "8"], None),
       (["fn-census", "--max", "3000"], None)]
)


def _run(argv, stdin=""):
    """(exit code, stdout) of the CLI."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        buf = io.StringIO()
        code = main(argv, out=buf)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def _random_lines(n):
    out = []
    for tcount, seed in CASES:
        code, text = _run(["random", "--n", str(n), "--target-tcount", str(tcount),
                           "--seed", str(seed)])
        assert code == 0
        out.append(text.splitlines()[0])
    return "\n".join(out) + "\n"


def _standalone_stdin(corpus, stdin_n):
    return corpus[str(stdin_n)]["input"] if stdin_n is not None else ""


def build_corpus():
    corpus = {}
    for n in NS:
        entry = {"input": _random_lines(n)}
        for name, argv in COMMANDS.items():
            code, entry[name] = _run(argv + ["--n", str(n)], stdin=entry["input"])
            assert code == 0, argv
        corpus[str(n)] = entry
    corpus["commands"] = {}
    for argv, stdin_n in STANDALONE:
        code, text = _run(argv, stdin=_standalone_stdin(corpus, stdin_n))
        corpus["commands"][" ".join(argv)] = {"code": code, "stdout": text}
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
    code, got = _run(COMMANDS[command] + ["--n", str(n)], stdin=entry["input"])
    assert code == 0
    assert got.encode() == entry[command].encode()


@pytest.mark.parametrize("argv,stdin_n", STANDALONE,
                         ids=[" ".join(argv) for argv, _ in STANDALONE])
def test_command_exit_code_and_output_match_corpus(argv, stdin_n):
    corpus = _load()
    code, got = _run(argv, stdin=_standalone_stdin(corpus, stdin_n))
    want = corpus["commands"][" ".join(argv)]
    assert code == want["code"]
    assert got.encode() == want["stdout"].encode()


if __name__ == "__main__":
    with open(CORPUS, "w") as fh:
        json.dump(build_corpus(), fh, indent=1, sort_keys=True)
        fh.write("\n")
