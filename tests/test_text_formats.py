"""Malformed inputs of every text format: each is a ParseError that names the
file and, where the problem sits on a line, that line."""

from pathlib import Path

import pytest

from fpet.cli import parse_config
from fpet.fpoly import family_from_text
from fpet.textkv import ParseError
from fpet.torus import system_from_text, trigpoly_from_text

FIXTURES = Path(__file__).parent / "fixtures"

PARSERS = {
    "system": (system_from_text, "s.system"),
    "family": (family_from_text, "f.family"),
    "observable": (trigpoly_from_text, "o.obs"),
    # relative input paths resolve against the fixtures directory
    "config": (parse_config, str(FIXTURES / "bad.cfg")),
}

SYS = "m = 1\nD = 1\n"
FAM = "height = 1\nambient_dim = 1\nmembers = 1\n"
CFG = "command = enumerate-precedents\nfamily = pair.family\n"

# (format, text, line of the fault or 0 when no line holds it, message pieces)
CASES = [
    ("system", "m = 1\nD = 1\nm = 1\nA[1] = 1\n", 3, ["duplicate key 'm'"]),
    ("system", "m = 2\nD = 1\nA[1] = 1\nA[1] = 2\nA[2] = 1\n", 4, ["duplicate", "A[1]"]),
    ("system", "m = 2\nD = 1\nA[1] = 1\n", 0, ["missing", "A[2]"]),
    ("system", "m = 1000000\nD = 1\nA[1] = 1\n", 0, ["missing entry A[2]"]),
    ("system", SYS + "A[1] = 1\nA[2] = 1\n", 4, ["unexpected", "A[2]"]),
    ("system", SYS + "A[0] = 1\nA[1] = 1\n", 3, ["unexpected", "A[0]"]),
    ("system", "m = 1\nD = 2\nA[1] = 1\n", 3, ["A[1] has 1 entries, expected 2"]),
    ("system", SYS + "B[1] = 1\n", 3, ["unknown key 'B[1]'"]),
    ("system", SYS + "A[x] = 1\n", 3, ["must be an integer, got 'x'"]),
    ("system", "m = x\nD = 1\n", 1, ["m must be an integer, got 'x'"]),
    ("system", "m = 1\n", 0, ["missing", "D"]),
    ("system", "m = 0\nD = 1\n", 1, ["m must be positive"]),
    ("system", "m = 1\nD = 0\n", 2, ["D must be positive"]),
    ("system", "m = 1\nA[1] = 1\nD = 1\n", 2, ["D must come before the first A"]),
    ("system", SYS + "A[1][1] = 1\n", 3, ["bad index 'A[1][1]'"]),
    ("family", "height = 1\nambient_dim = 1\nheight = 1\nmembers = 1\nv[1][1] = 1\n", 3,
     ["duplicate key 'height'"]),
    ("family", FAM + "v[1][1] = 1\nv[1][1] = 2\n", 5, ["duplicate", "v[1][1]"]),
    ("family", "height = 1\nambient_dim = 1\nmembers = 2\nv[1][1] = 1\n", 0, ["missing", "v[2][1]"]),
    ("family", FAM + "v[1][1] = 1\nv[1][2] = 1\n", 5, ["unexpected", "v[1][2]"]),
    ("family", "height = 1\nambient_dim = 2\nmembers = 1\nv[1][1] = 1\n", 4,
     ["v[1][1] has 1 entries, expected 2"]),
    ("family", FAM + "w[1][1] = 1\n", 4, ["unknown key 'w[1][1]'"]),
    ("family", FAM + "v[1] = 1\n", 4, ["'v[1]'"]),
    ("family", FAM + "v[a][1] = 1\n", 4, ["'v[a][1]'"]),
    ("family", "height = 1\nambient_dim = 1\nmembers = 0\n", 3, ["members must be positive"]),
    ("family", "height = 1\nmembers = 1\n", 0, ["missing key 'ambient_dim'"]),
    ("observable", "m = 1\nm = 1\n", 2, ["duplicate key 'm'"]),
    ("observable", "m = 1\nterm = 1 : 1.0 0.0\nterm = 1 : 2.0 0.0\n", 3, ["duplicate"]),
    ("observable", "m = 1\nterm = 1 2 : 1.0 0.0\n", 2, ["2 entries, expected 1"]),
    ("observable", "m = 1\nfoo = 1\n", 2, ["unknown key 'foo'"]),
    ("observable", "m = 1\nterm = x : 1.0 0.0\n", 2, ["must be an integer, got 'x'"]),
    ("observable", "term = 1 : 1.0 0.0\nm = 1\n", 1, ["must come before the first term"]),
    ("observable", "m = 1\nterm = 1 1.0 0.0\n", 2, ["term needs the form"]),
    ("observable", "", 0, ["missing key 'm'"]),
    ("observable", "m = 0\n", 1, ["m must be positive"]),
    ("observable", "m = 1\nterm = 1 : 1.0\n", 2, ["term 1 has 1 entries, expected 2"]),
    ("observable", "m = 1\nterm[1] = 1.0 0.0\n", 2, ["term needs the form"]),
    ("config", CFG + "family = third.family\n", 3, ["duplicate key 'family'"]),
    ("config", CFG + "frobnicate = 3\n", 3, ["unknown key 'frobnicate'"]),
    ("config", "command = bogus\n", 1, ["unknown command 'bogus'"]),
    ("config", CFG + "n_max = x\n", 3, ["n_max must be an integer"]),
    ("config", CFG + "tol = x\n", 3, ["tol must be a number"]),
    ("config", CFG + "alphas = 1/2, 3/0\n", 3, ["malformed rational '3/0'"]),
    ("config", CFG + "observables = ,\n", 3, ["observables must list at least one path"]),
    ("config", CFG + "n_max = 0\n", 3, ["n_max must be positive"]),
    ("config", CFG + "tol = -1\n", 3, ["tol must be finite and positive"]),
    ("config", CFG + "intervals = bogus\n", 3, ["unknown intervals 'bogus'"]),
    ("config", "command = enumerate-precedents\nfamily = nope.family\n", 2, ["not found", "nope.family"]),
    ("config", "command = run-convergence\n", 0, ["command run-convergence requires key 'system'"]),
    ("config", "family = pair.family\n", 0, ["missing key 'command'"]),
    ("config", CFG + "alphas = ,\n", 3, ["alphas must list at least one value"]),
    ("config", CFG + "seed = 0\n", 3, ["unknown key 'seed'"]),
    ("config", CFG + "alphas = 1/2, 0\n", 3, ["alphas must list at least one value, each positive"]),
]


@pytest.mark.parametrize(
    "fmt, text, line, pieces", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)]
)
def test_malformed_input_is_a_positioned_parse_error(fmt, text, line, pieces):
    parse, path = PARSERS[fmt]
    with pytest.raises(ParseError) as exc:
        parse(text, path)
    err = exc.value
    assert (err.path, err.line) == (path, line)
    assert str(err).startswith(f"{path}:{line}: " if line else f"{path}: ")
    for piece in pieces:
        assert piece in err.message
