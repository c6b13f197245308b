"""Lazily built per-context tables have one home: Context.memo.

Any module but cyclo.py that reaches into the store behind it (or brings
back a private per-context cache dict) fails here, so a second cache
mechanism cannot grow next to the first.
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycsynth"


def test_only_cyclo_touches_the_per_context_store():
    modules = sorted(SRC.glob("*.py"))
    assert "cyclo.py" in [p.name for p in modules]
    offenders = []
    for path in modules:
        text = path.read_text()
        if path.name != "cyclo.py" and ("._memo" in text or "._cache" in text):
            offenders.append(path.name)
    assert offenders == []
