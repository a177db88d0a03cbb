import json
from fractions import Fraction
from pathlib import Path

import pytest

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
    assert spec.seed == 0
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
            seed=rng.randint(0, 999),
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


def test_check_invariance_cli(tmp_path):
    rc = main(["--config", cfg_path("invariance.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "invariance.jsonl").read_text().splitlines()
    assert len(lines) == 5  # one grid point per shift time at height 1
    for line in lines:
        record = json.loads(line)
        assert record["equal"] is True
        assert record["moment"] == [1.0, 0.0]


def test_check_characteristic_cli(tmp_path):
    rc = main(["--config", cfg_path("characteristic.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads((tmp_path / "characteristic.jsonl").read_text())
    assert record["verdict"] == "AGREE"
    assert record["l2_distance"] == 0.0


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
