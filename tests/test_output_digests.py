"""The output digests of ``ci/output_digests.py``."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digests", ROOT / "ci" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _run(tmp: Path):
    return output_digests.digest_lines(
        "x.cfg", 0, f"check: ok; wrote {tmp}/out/x.jsonl\n", "", tmp / "out", tmp
    )


def test_one_changed_output_byte_changes_only_its_line(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "x.jsonl").write_bytes(b'{"moment": [1.0, 0.0]}\n')
    (out / "x.csv").write_bytes(b"n,a,b\n1,0.0,2.0\n")
    before = _run(tmp_path)
    assert [line.split()[1] for line in before] == ["exit", "stdout", "stderr", "out/x.csv",
                                                    "out/x.jsonl"]
    (out / "x.jsonl").write_bytes(b'{"moment": [1.0, 0.1]}\n')
    after = _run(tmp_path)
    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [4]


def test_the_temporary_directory_does_not_show(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    for tmp in (one, two):
        (tmp / "out").mkdir(parents=True)
        (tmp / "out" / "x.jsonl").write_bytes(b"{}\n")
    assert _run(one) == _run(two)


def test_a_fixture_run_digests_the_same_in_two_directories(tmp_path):
    config = ROOT / "tests" / "fixtures" / "prec_pair.cfg"
    lines = []
    for tmp in (tmp_path / "one", tmp_path / "two"):
        shutil.copytree(config.parent, tmp / "in")
        lines.append(output_digests.run_config("prec_pair.cfg", tmp / "in" / config.name, tmp))
    assert lines[0] == lines[1]
    assert [line.split()[1] for line in lines[0]] == ["exit", "stdout", "stderr",
                                                      "out/prec_pair.dag"]


def test_against_prints_only_the_lines_that_differ():
    """Lines pair by config and part: a moved digest shows on both sides, a
    part that one run alone has shows on its side, and the count closes."""
    before = ["a.cfg exit 11", "a.cfg stdout 22", "b.cfg exit 33", "b.cfg out/b.csv 44"]
    after = ["a.cfg exit 11", "a.cfg stdout 2f", "b.cfg exit 33", "b.cfg out/b.jsonl 55"]
    assert output_digests.differing(before, after) == [
        "- a.cfg stdout 22", "+ a.cfg stdout 2f",
        "- b.cfg out/b.csv 44",
        "+ b.cfg out/b.jsonl 55",
        "3 of 5 digest lines differ",
    ]
    assert output_digests.differing(before, before) == ["0 of 4 digest lines differ"]
