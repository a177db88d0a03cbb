"""Print a sha256 digest of everything the CLI writes, per config.

Run from the root of an fpet checkout:

    python3 ci/output_digests.py

It runs each ``tests/fixtures/*.cfg`` and each config that
``perfbench/inputs.generate`` writes for the seeds 1, 2 and 3, every one as
its own ``fpet`` process, on inputs copied (the fixtures, once per config) or
generated (once per workload and seed) into a fresh temporary directory, and
with an output directory of its own there.  For each config it prints one
line per part of the run,

    <config> <part> <sha256>

where the parts are the exit code, stdout and stderr (each with the
temporary directory's path replaced by ``<tmp>``) and every output file.
Run it on two checkouts and compare the lines to see whether a change moved
any output byte.  It checks nothing.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SEEDS = (1, 2, 3)


def digest_lines(label: str, returncode: int, stdout: str, stderr: str, out: Path,
                 tmp: Path) -> list[str]:
    """The digest lines of one run: its exit code, its stdout and stderr
    with ``tmp`` replaced, then each file under ``out`` by relative path."""
    parts = [("exit", str(returncode).encode())]
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        parts.append((name, text.replace(str(tmp), "<tmp>").encode()))
    if out.is_dir():
        parts += [(f"out/{path.relative_to(out).as_posix()}", path.read_bytes())
                  for path in sorted(out.rglob("*")) if path.is_file()]
    return [f"{label} {part} {hashlib.sha256(data).hexdigest()}" for part, data in parts]


def run_config(label: str, config: Path, tmp: Path) -> list[str]:
    """Run ``fpet`` on ``config``, an input under ``tmp``, with its outputs
    in a directory of their own under ``tmp``; return the digest lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FPET_LOG", None)
    out = tmp / "out" / config.stem
    proc = subprocess.run(
        [sys.executable, "-m", "fpet.cli", "--config", str(config), "--out", str(out)],
        cwd=tmp, capture_output=True, text=True, env=env, timeout=600,
    )
    return digest_lines(label, proc.returncode, proc.stdout, proc.stderr, out, tmp)


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    for config in sorted(FIXTURES.glob("*.cfg")):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name).resolve()
            shutil.copytree(FIXTURES, tmp / "in")
            print("\n".join(run_config(f"fixtures/{config.name}", tmp / "in" / config.name, tmp)))
    for seed in SEEDS:
        for workload in inputs.WORKLOADS:
            with tempfile.TemporaryDirectory() as name:
                tmp = Path(name).resolve()
                for op in inputs.generate(workload, seed, tmp / "in"):
                    label = f"{workload}/seed{seed}/{op.config.name}"
                    print("\n".join(run_config(label, op.config, tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
