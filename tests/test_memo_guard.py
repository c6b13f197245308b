"""Lazily built per-context tables have one home: Context.memo.

Any module but cyclo.py that reaches into the store behind it (or brings
back a private per-context cache dict) fails here, so a second cache
mechanism cannot grow next to the first.  Likewise the denominator
exponent has one home, rings, which alone reads parity bits for it, and
the descent has one candidate scan for every n.
"""

import pathlib
import re

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


def test_rings_is_the_one_home_of_the_denominator_exponent():
    # The descent reads exponents and their bracket from rings alone, with
    # nothing but the context; BetaConstant is the witness base and no more.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name in ("so3.py", "synth.py") and (
                "BetaConstant" in text or "beta_constant" in text):
            offenders.append((path.name, "BetaConstant"))
        if path.name not in ("cyclo.py", "rings.py") and "mod2_multiplicity(" in text:
            offenders.append((path.name, "mod2_multiplicity"))
    assert offenders == []


def test_the_descent_has_one_scan_for_every_n():
    # synth never reads the odd part s of n, so no second candidate scan
    # can grow back next to the residue-plane scan behind a branch on it.
    text = (SRC / "synth.py").read_text()
    assert re.findall(r"\bctx\.s\b", text) == []
