"""Byte-level goldens for the commands that run on exact algebra only, and
for the boundary where exact phases become floats.

The fixture digests were recorded before independence moved onto the Hermite
form and goodness onto one test; the benchmark digests before the
self-joining moments, their shifts and the characteristic-factor check moved
onto one zero-phase join.  A change to how any of these is decided must leave
every output, and the exit code, exactly as it was.

The numeric commands' outputs pass through numpy's exp and are not pinned;
their phase groups are, as they leave the exact layer (recorded before the
torus matrix moved onto integer rows over one denominator).
"""

import hashlib
from pathlib import Path

import pytest

from fpet.averages import _phase_groups
from fpet.cli import _load_inputs, main, parse_config

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# stem -> (exit code, sha256 of stdout with the output directory as "OUT",
#          {output file name: sha256 of its bytes})
GOLDEN = {
    "prec_pair": (0, "47d46b9ce6270c3d5dc089348560393e236ec4d1881251d1e59be36638fea0ca", {
        "prec_pair.dag": "d0aa0ef5c7d4f1498a0f2ba9793000c8f1783762086c787b87706b3f4c488470",
    }),
    "prec_singleton": (0, "9bb1e5634dd75cf3c91e4ae04229def40a60810a6ca204bb7fbf36e46e248935", {
        "prec_singleton.dag": "7ef4ee0dda0eb6fcc3073c8cad13f0b6a4ac8014e12808c56a68254264701593",
    }),
    "characteristic": (0, "219a837b8dd2523df580aa6b40669d596fcfe60bb51f2cc75cc3237ad0df2fd1", {
        "characteristic.jsonl": "4c14bbf1698d708271883dbb2ca5c5ee2df8e3200a9314139a5e18972115ffe5",
    }),
    "invariance": (0, "4635fd7ef941d3fdad6f25e75226643471c1972a5384665f0b28b41bd085e0ea", {
        "invariance.jsonl": "efeee9cb6715508186fe3cac8752bbebf7f893c3568e8409562d2f0891ee9de7",
    }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_exact_fixture_outputs_are_byte_identical(tmp_path, capsys, stem):
    rc = main(["--config", str(FIXTURES / f"{stem}.cfg"), "--out", str(tmp_path)])
    stdout = capsys.readouterr().out.replace(str(tmp_path), "OUT")
    files = {f.name: _sha(f.read_bytes()) for f in sorted(tmp_path.iterdir())}
    assert (rc, _sha(stdout.encode()), files) == GOLDEN[stem]


# the benchmark's seed-1 exact_descent inputs, written by perfbench/inputs.py
# (read, never changed): the descent template, leads (3, 3, 2, 2, 1, 1) at
# height 3 in Q^12, whose DAG has 574 nodes and 1,478 edges; and k = 3 at
# height 2 on T^3, with 16-term observables
BENCH_GOLDEN = {
    "precedents": (0, "977761a2a9d432bae31bf11c528c25b58f6edbc13105a961075c0463c2837f73", {
        "precedents.dag": "1b09b45e2f9c606bb12e863c7433cb8a1a4011443dfa5aa7d191e089235b2092",
    }),
    "characteristic": (0, "219a837b8dd2523df580aa6b40669d596fcfe60bb51f2cc75cc3237ad0df2fd1", {
        "characteristic.jsonl": "3bdc1cd9a4f0245888bea2b5382998c8b87e177c80bbe7743ab00947b3e98376",
    }),
    "invariance": (0, "f9f87fbc2d4effdd19065edb6eba9f2eced42d5e1276fdee94c9e38ed536120d", {
        "invariance.jsonl": "cf5b82d84a868782f00a1e333db3689516e4d469a8bd1ea60340b42882df999e",
    }),
}


@pytest.mark.parametrize("stem", sorted(BENCH_GOLDEN))
def test_benchmark_exact_outputs_are_byte_identical(tmp_path, capsys, monkeypatch, stem):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    op = next(op for op in inputs.generate("exact_descent", 1, tmp_path / "in") if op.stem == stem)
    out = tmp_path / "out"
    rc = main(["--config", str(op.config), "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    files = {f.name: _sha(f.read_bytes()) for f in sorted(out.iterdir())}
    assert (rc, _sha(stdout.encode()), files) == BENCH_GOLDEN[stem]


# sha256 of repr(_phase_groups(...)): each group's Phase coefficients
# {j/d: n_j/denom} and its P per output, in the groups' order.  Each float is
# a correctly rounded division of Python ints and each P a Python complex sum
# in product order, so the digests do not depend on the platform.
GROUPS_GOLDEN = {
    "conv_k1": "3a191211422d163c6b3132e0329226c2c53cbc02920504d4137984af1251e7ca",
    "vdc": "a4cad9117a1f780763fa7f2d65bc1a1cbbe930d5ce8a951227f59dca612d7d23",
    # the seed-1 benchmark inputs: both run-convergence configs share theirs
    "convergence/conv_pinned": "437ed2d81fd40f7b54c9554b4e6a7d2f87cb0ed1d488052890677a7e122ccc4e",
    "timechange_vdc/vdc": "e23089ce988c6f4bff5eb7e06d0ffd2cb610e92d38ef1405e9a3635d1049dced",
}


def _groups_digest(config: Path) -> str:
    spec = parse_config(config.read_text(), str(config))
    return _sha(repr(_phase_groups(*_load_inputs(spec))).encode())


@pytest.mark.parametrize("name", sorted(GROUPS_GOLDEN))
def test_phase_groups_are_pinned(tmp_path, monkeypatch, name):
    workload, _, stem = name.rpartition("/")
    if not workload:
        config = FIXTURES / f"{stem}.cfg"
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import inputs

        config = next(op for op in inputs.generate(workload, 1, tmp_path) if op.stem == stem).config
    assert _groups_digest(config) == GROUPS_GOLDEN[name]
