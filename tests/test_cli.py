import json
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import fpet
from fpet import averages
from fpet.cli import ExperimentSpec, main, parse_config, run, serialize_config
from fpet.textkv import ParseError

FIXTURES = Path(__file__).parent / "fixtures"


def cfg_path(name):
    return str(FIXTURES / name)


def read_cfg(name):
    return (FIXTURES / name).read_text()


def test_parse_minimal_config_applies_defaults():
    spec = parse_config(read_cfg("prec_singleton.cfg"), cfg_path("prec_singleton.cfg"))
    assert spec.command == "enumerate-precedents"
    assert spec.n_max == 12
    assert spec.tol == 1e-8
    assert spec.pass_tol == 1e-2
    assert spec.budget == 10**7
    assert spec.max_nodes == 10_000
    assert spec.intervals == "pinned"


def test_parse_duplicate_key_is_an_error(tmp_path):
    text = read_cfg("prec_singleton.cfg") + "family = third.family\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text, cfg_path("prec_singleton.cfg"))
    assert "duplicate key 'family'" in str(exc.value)


def test_parse_unknown_key_is_an_error():
    text = read_cfg("prec_singleton.cfg") + "frobnicate = 3\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text, cfg_path("prec_singleton.cfg"))
    assert "unknown key" in str(exc.value)


def test_parse_missing_required_key():
    with pytest.raises(ParseError) as exc:
        parse_config("command = run-convergence\n", cfg_path("x.cfg"))
    assert "requires key" in str(exc.value)


def test_parse_missing_file_is_an_error(tmp_path):
    text = "command = enumerate-precedents\nfamily = nope.family\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text, str(tmp_path / "c.cfg"))
    assert "not found" in str(exc.value)


def test_config_round_trip(rng):
    for _ in range(20):
        spec = ExperimentSpec(
            command=rng.choice(["run-convergence", "check-vdc", "check-invariance"]),
            system=cfg_path("plane.system"),
            family=cfg_path("pair.family"),
            observables=(cfg_path("x1.obs"), cfg_path("mx2.obs")),
            intervals=rng.choice(["pinned", "sliding-k1", "sliding-k5", "irregular"]),
            n_max=rng.randint(1, 20),
            tol=10.0 ** -rng.randint(4, 12),
            pass_tol=10.0 ** -rng.randint(1, 3),
            budget=rng.randint(10**5, 10**8),
            T=float(rng.randint(10, 10**5)),
            H=float(rng.randint(2, 10**3)),
            shift_times=(Fraction(-1), Fraction(rng.randint(1, 9), rng.randint(1, 9))),
            alphas=(Fraction(1, 2), Fraction(rng.randint(1, 5))),
            max_nodes=rng.randint(10, 10**5),
        )
        assert parse_config(serialize_config(spec), "<config>") == spec


def test_run_convergence_exit_zero_and_monotone_csv(tmp_path):
    rc = main(["--config", cfg_path("conv_k1.cfg"), "--serial", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "conv_k1.csv").read_text().splitlines()
    assert csv[0] == "n,a_n,b_n,l2_distance_to_oracle,cauchy_diff,max_coeff_err"
    assert len(csv) == 1 + 14  # header + one row per n
    dists = [float(line.split(",")[3]) for line in csv[1:]]
    assert all(b <= a for a, b in zip(dists[3:], dists[4:]))
    assert dists[-1] < 1e-2


def test_reproducible_serial_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg_path("conv_k1.cfg"), "--serial", "--out", str(out1)]) == 0
    assert main(["--config", cfg_path("conv_k1.cfg"), "--serial", "--out", str(out2)]) == 0
    assert (out1 / "conv_k1.csv").read_bytes() == (out2 / "conv_k1.csv").read_bytes()


def test_enumerate_precedents_singleton(tmp_path):
    rc = main(["--config", cfg_path("prec_singleton.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    dag = (tmp_path / "prec_singleton.dag").read_text().splitlines()
    assert len(dag) == 1
    assert dag[0].startswith("node 0 ")


def test_enumerate_precedents_pair(tmp_path):
    rc = main(["--config", cfg_path("prec_pair.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "prec_pair.dag").read_text().splitlines()
    nodes = [l for l in lines if l.startswith("node ")]
    edges = [l for l in lines if l.startswith("edge ")]
    assert len(nodes) == 4 and len(edges) == 3


def test_malformed_rational_exits_2(tmp_path, capsys):
    rc = main(["--config", cfg_path("broken.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "broken.family:4" in err
    assert "3/0" in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_on_a_file_exits_2(tmp_path, capsys, under):
    """An --out that names a file, or a path under one, is an input error,
    not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    rc = main(["--config", cfg_path("prec_pair.cfg"), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and str(taken) in captured.err
    assert captured.out == ""


def test_check_invariance_cli(tmp_path):
    rc = main(["--config", cfg_path("invariance.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "invariance.jsonl").read_text().splitlines()
    assert len(lines) == 5  # one grid point per shift time at height 1
    for line in lines:
        record = json.loads(line)
        assert record["equal"] is True
        assert record["moment"] == [1.0, 0.0]


def test_check_invariance_can_fail(tmp_path, monkeypatch):
    # a join that lets every frequency tuple through, resonant or not, must
    # show up as a shifted moment that differs from the unshifted one; f_0's
    # term at (-2, 1) cancels the output of the non-resonant tuple
    # ((2, 0), (0, -1)), so Haar orthogonality alone does not drop it
    def every_tuple(sys, fam, fs):
        tables, _ = averages._phase_tables(sys, fam, fs)
        return [averages._tuple_term(entries, sys.m)
                for entries, _ in averages._tuple_data(tables, fam.height)]

    monkeypatch.setattr(averages, "_resonant_tuples", every_tuple)
    for name, terms in (("f0", "-1 1 : 1.0 0.0\nterm = -2 1 : 0.5 0.0"), ("f1", "1 0 : 1.0 0.0"),
                        ("f2", "0 -1 : 1.0 0.0")):
        (tmp_path / f"{name}.obs").write_text(f"m = 2\nterm = {terms}\nterm = 2 0 : 0.5 0.0\n")
    config = tmp_path / "wide.cfg"
    config.write_text(
        f"command = check-invariance\nsystem = {cfg_path('plane.system')}\n"
        f"family = {cfg_path('pair.family')}\nobservables = f0.obs, f1.obs, f2.obs\n"
    )
    assert main(["--config", str(config), "--out", str(tmp_path)]) == 1
    records = [json.loads(line) for line in (tmp_path / "wide.jsonl").read_text().splitlines()]
    assert [r["equal"] for r in records] == [True, True, False, False, True]


@pytest.mark.parametrize("stem", ["invariance", "characteristic"])
def test_exact_check_runs_one_join(tmp_path, monkeypatch, stem):
    # the moment, every shifted moment, the projected limit and the witnesses
    # all read the one list of resonant tuples
    calls = []
    real = averages._resonant_tuples
    monkeypatch.setattr(
        averages, "_resonant_tuples", lambda sys, fam, fs: calls.append(1) or real(sys, fam, fs)
    )
    assert main(["--config", cfg_path(f"{stem}.cfg"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_check_characteristic_cli(tmp_path):
    rc = main(["--config", cfg_path("characteristic.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads((tmp_path / "characteristic.jsonl").read_text())
    assert record["verdict"] == "AGREE"
    assert record["l2_distance"] == 0.0


def test_check_characteristic_reports_a_witness_the_limits_absorb(tmp_path, capsys):
    # the witness's product -3e-21 is below the rounding of the in-factor
    # mass 0.03 at its output: two float limits would read equal
    rc = main(["--config", cfg_path("char_absorbed.cfg"), "--out", str(tmp_path)])
    assert rc == 1
    assert "DISAGREE (distance 3e-21)" in capsys.readouterr().out
    record = json.loads((tmp_path / "char_absorbed.jsonl").read_text())
    assert record["verdict"] == "DISAGREE"
    assert record["l2_distance"] == 3e-21
    assert record["witnesses"] == [[[-1, 0], [0, -1], [0, 1]]]


def test_check_characteristic_sums_cancelling_witnesses_exactly(tmp_path, capsys):
    # three witnesses at output (-3, -2) with products 1, 1e-20 and -1: their
    # float sum is 0, and a float sum read AGREE
    rc = main(["--config", cfg_path("char_cancel.cfg"), "--out", str(tmp_path)])
    assert rc == 1
    assert "DISAGREE (distance 1e-20)" in capsys.readouterr().out
    record = json.loads((tmp_path / "char_cancel.jsonl").read_text())
    assert record["verdict"] == "DISAGREE"
    assert record["l2_distance"] == 1e-20
    assert len(record["witnesses"]) == 3


GOLDEN_JSONL = {
    "characteristic": (
        '{"check": "partially_characteristic", "factor_rank": 2, "l2_distance": 0.0, '
        '"verdict": "AGREE", "witnesses": []}\n'
    ),
    "invariance": "".join(
        '{"check": "off_diagonal_invariance", "equal": true, "j": 1, '
        f'"moment": [1.0, 0.0], "shifted": [1.0, 0.0], "t": "{t}"}}\n'
        for t in ("-1", "1", "-1/3", "1/3", "7")
    ),
}


@pytest.mark.parametrize("stem", sorted(GOLDEN_JSONL))
def test_exact_check_outputs_golden(tmp_path, stem):
    assert main(["--config", cfg_path(f"{stem}.cfg"), "--serial", "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{stem}.jsonl").read_text() == GOLDEN_JSONL[stem]


def test_check_vdc_cli(tmp_path):
    rc = main(["--config", cfg_path("vdc.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads((tmp_path / "vdc.jsonl").read_text())
    assert record["passed"] is True
    assert record["lhs"] <= record["rhs_core"] + record["slack"]


def test_verify_timechange_cli(tmp_path):
    rc = main(["--config", cfg_path("timechange_quick.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "timechange_quick.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["mass_error"] <= 1e-8
        assert record["passed"] is True


def test_budget_error_exits_3(tmp_path):
    text = read_cfg("conv_k1.cfg").replace("tol = 1e-8", "tol = 1e-13") + "budget = 3000\n"
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(text.replace("family = third.family", f"family = {cfg_path('third.family')}")
                   .replace("system = circle.system", f"system = {cfg_path('circle.system')}")
                   .replace("observables = e.obs", f"observables = {cfg_path('e.obs')}"))
    rc = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 3


def test_run_rejects_unknown_interval_id():
    text = read_cfg("conv_k1.cfg").replace("intervals = pinned", "intervals = bogus")
    with pytest.raises(ParseError):
        parse_config(text, cfg_path("conv_k1.cfg"))


@pytest.mark.parametrize("key", ["tol", "pass_tol", "T", "H"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_knob_exits_2(tmp_path, capsys, key, bad):
    cfg = tmp_path / "knob.cfg"
    cfg.write_text(read_cfg("timechange_quick.cfg") + f"{key} = {bad}\n")
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 2
    assert f"{key} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "knob.jsonl").exists()


@pytest.mark.parametrize("alphas, named", [
    ("1000", "1000"), ("50", "50"), ("1/2, 1000", "1000"),
    ("1" + "0" * 400, "1" + "0" * 400), ("1/1" + "0" * 400, "1/1" + "0" * 400),
], ids=["1000", "50", "second", "past-float", "below-float"])
def test_unaffordable_alpha_exits_2(tmp_path, capsys, alphas, named):
    """An exponent whose b^alpha leaves the float range, or which is itself
    out of it, is an input error naming that alpha, not a traceback."""
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(f"command = verify-timechange\nalphas = {alphas}\nintervals = sliding-k1\n")
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"input error: no affordable interval for alpha = {named}\n"
    assert not (tmp_path / "alpha.jsonl").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_observable_coefficient_exits_2(tmp_path, capsys, bad):
    obs = tmp_path / "bad.obs"
    obs.write_text(f"m = 1\nterm = 1 : {bad} 0.0\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"command = run-convergence\nsystem = {cfg_path('circle.system')}\n"
        f"family = {cfg_path('third.family')}\nobservables = bad.obs\nn_max = 3\n"
    )
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 2
    assert "bad.obs:2: re must be finite" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_observable_coefficient_past_the_float_square_exits_2(tmp_path, capsys):
    # conv_k1.cfg with a coefficient that is finite, but whose square in the
    # distance's norm overflows
    (tmp_path / "big.obs").write_text("m = 1\nterm = 1 : 1e200 0.0\n")
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        f"command = run-convergence\nsystem = {cfg_path('circle.system')}\n"
        f"family = {cfg_path('third.family')}\nobservables = big.obs\nn_max = 14\n"
    )
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: float overflow")
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("intervals, n", [("pinned", 1024), ("sliding-k5", 1022)])
def test_interval_past_float_range_exits_2(tmp_path, capsys, intervals, n):
    """With only the frequency-0 term every phase is zero and no window guard
    fires, so the interval sequence itself must refuse the first interval
    with an end past the float range: 2^1024 overflows, and at sliding-k5
    6 * 2^1022 rounds to inf."""
    (tmp_path / "one.obs").write_text("m = 1\nterm = 0 : 1.0 0.0\n")
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        f"command = run-convergence\nsystem = {cfg_path('circle.system')}\n"
        f"family = {cfg_path('third.family')}\nobservables = one.obs\n"
        f"intervals = {intervals}\nn_max = 1100\n"
    )
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"input error: interval {n} of {intervals} is past the float range\n"
    assert not (tmp_path / "far.csv").exists()


def test_precedent_budget_exits_3_with_partial_dag(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        f"command = enumerate-precedents\nfamily = {cfg_path('pair.family')}\nmax_nodes = 2\n"
    )
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path)])
    assert rc == 3
    assert "enumerate-precedents: BUDGET" in capsys.readouterr().out
    lines = (tmp_path / "tiny.dag").read_text().splitlines()
    nodes = [line for line in lines if line.startswith("node ")]
    assert 1 <= len(nodes) < 4  # the full DAG of pair.family has 4 nodes


@pytest.mark.parametrize(
    "name, text",
    [
        ("zero.system", "m = 0\nD = 1\n"),
        ("zero.system", "m = 1\nD = 0\nA[1] =\n"),
        ("zero.obs", "m = 0\n"),
    ],
)
def test_zero_dimension_input_exits_2(tmp_path, capsys, name, text):
    files = {"zero.system": cfg_path("circle.system"), "zero.obs": cfg_path("e.obs")}
    (tmp_path / name).write_text(text)
    files[name] = name
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        f"command = run-convergence\nsystem = {files['zero.system']}\n"
        f"family = {cfg_path('third.family')}\nobservables = {files['zero.obs']}\nn_max = 3\n"
    )
    rc = main(["--config", str(cfg), "--serial", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{tmp_path / name}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "zero.csv").exists()


@pytest.mark.parametrize(
    "name, body, error",
    [
        ("bad.cfg", b"command = enumerate-precedents\nfamily = x\xff\n", "input error: "),
        ("x\0y.cfg", None, "input error: "),
        ("nul.cfg", b"command = check-vdc\nsystem = x\0y\n", "config error: {cfg}:2: system"),
        ("nul.cfg", b"command = enumerate-precedents\nfamily = x\0y\n", "config error: {cfg}:2: family"),
        ("nul.cfg", b"command = check-vdc\nobservables = e.obs, x\0y\n",
         "config error: {cfg}:2: observables"),
        ("loop.cfg", b"command = enumerate-precedents\nfamily = loop\n", "config error: {cfg}:2: family"),
    ],
    ids=["not-utf8", "nul-in-config-path", "nul-in-system", "nul-in-family", "nul-in-observables",
         "symlink-loop"],
)
def test_malformed_config_bytes_exit_2(tmp_path, capsys, name, body, error):
    # each used to end in a traceback and exit 1: UnicodeDecodeError and
    # "embedded null byte" are ValueErrors, and a symlink loop raised
    # RuntimeError from Path.resolve
    (tmp_path / "loop").symlink_to("loop")
    cfg = tmp_path / name
    if body is not None:
        cfg.write_bytes(body)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(error.format(cfg=cfg))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, error", [
    ("family third.family", "expected 'key = value', got 'family third.family'"),
    ("= third.family", "empty key"),
])
def test_a_line_without_a_key_exits_2(tmp_path, capsys, line, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"command = enumerate-precedents\n{line}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: {error}\n"
    assert not (tmp_path / "out").exists()


def test_threads_option_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_path("prec_singleton.cfg"), "--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_serial_is_accepted_and_changes_nothing(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg_path("prec_pair.cfg"), "--out", str(out1)]) == 0
    assert main(["--config", cfg_path("prec_pair.cfg"), "--serial", "--out", str(out2)]) == 0
    assert (out1 / "prec_pair.dag").read_bytes() == (out2 / "prec_pair.dag").read_bytes()


def test_help_lists_every_key_and_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    keys = [line.split()[0] for line in text.split("config keys", 1)[1].splitlines()[1:]
            if line.startswith("  ") and not line.startswith("   ")]
    assert keys[: len(fields(ExperimentSpec))] == [f.name for f in fields(ExperimentSpec)]
    for command in ("run-convergence", "check-invariance", "check-characteristic",
                    "check-vdc", "enumerate-precedents", "verify-timechange"):
        assert f"\n  {command} " in text
    assert "verify-timechange runs sliding-k1 in place of pinned" in " ".join(text.split())
    assert "verify-timechange searches n = 1..59" in " ".join(text.split())


@pytest.mark.parametrize(
    "spec, message",
    [
        (ExperimentSpec(command="check-vdc"), "command check-vdc requires key 'system'"),
        (ExperimentSpec(command="enumerate-precedents"), "requires key 'family'"),
        (ExperimentSpec(command="run-convergence", system=cfg_path("circle.system"),
                        family=cfg_path("third.family")), "requires key 'observables'"),
        (ExperimentSpec(command="frobnicate"), "unknown command 'frobnicate'"),
        (ExperimentSpec(command="verify-timechange", tol=float("nan"), alphas=()),
         "tol must be finite and positive"),
        (ExperimentSpec(command="verify-timechange", alphas=()), "alphas must list at least one value"),
        (ExperimentSpec(command="verify-timechange", alphas=(Fraction(1, 2), Fraction(0))),
         "alphas must list at least one value, each positive"),
    ],
    ids=["vdc-no-inputs", "precedents-no-family", "convergence-no-observables",
         "unknown-command", "nan-tol-no-alphas", "no-alphas", "zero-alpha"],
)
def test_run_validates_a_spec_built_in_python(tmp_path, capsys, spec, message):
    out = tmp_path / "out"
    assert run(spec, str(out)) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_cli_import_loads_neither_scipy_nor_mpmath():
    """The library runs on numpy alone: a fresh interpreter that imports the
    CLI has loaded no scipy (scipy.special alone costs about 0.3 s of
    start-up) and no mpmath, which only the tests use as a reference."""
    env = dict(os.environ, PYTHONPATH=str(Path(fpet.__file__).resolve().parents[1]))
    probe = "import sys, fpet.cli; print(sorted({m.partition('.')[0] for m in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out.replace("'", '"')))
    assert "numpy" in loaded and "fpet" in loaded
    assert not loaded & {"scipy", "mpmath"}
