"""Print a sha256 digest of everything the CLI writes, per config.

Run from the root of an fpet checkout:

    python3 ci/output_digests.py
    python3 ci/output_digests.py --against <git-ref>

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
any output byte.

``--against <git-ref>`` makes that comparison itself: it also digests a
``git archive`` of the ref, extracted into a temporary directory (that
tree's fpet, fixtures and input generator, run the same way), and prints
only the lines that differ, ``-`` for the ref and ``+`` for this checkout,
then a count.  It checks nothing, and exits 0 whatever differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
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


def run_config(label: str, config: Path, tmp: Path, root: Path = ROOT) -> list[str]:
    """Run the ``fpet`` of the tree ``root`` on ``config``, an input under
    ``tmp``, with its outputs in a directory of their own under ``tmp``;
    return the digest lines."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FPET_LOG", None)
    out = tmp / "out" / config.stem
    proc = subprocess.run(
        [sys.executable, "-m", "fpet.cli", "--config", str(config), "--out", str(out)],
        cwd=tmp, capture_output=True, text=True, env=env, timeout=600,
    )
    return digest_lines(label, proc.returncode, proc.stdout, proc.stderr, out, tmp)


def _inputs(root: Path):
    """The ``perfbench/inputs`` module of the tree ``root``, under a name of
    its own, so two trees' generators can be loaded side by side."""
    name = f"inputs_{hashlib.sha256(str(root).encode()).hexdigest()[:12]}"
    spec = importlib.util.spec_from_file_location(name, root / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def tree_digests(root: Path) -> Iterator[str]:
    """The digest lines of every fixture and benchmark config of the tree
    ``root``, run on that tree's fpet, in the order they are printed."""
    fixtures = root / "tests" / "fixtures"
    for config in sorted(fixtures.glob("*.cfg")):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name).resolve()
            shutil.copytree(fixtures, tmp / "in")
            yield from run_config(f"fixtures/{config.name}", tmp / "in" / config.name, tmp, root)
    inputs = _inputs(root)
    for seed in SEEDS:
        for workload in inputs.WORKLOADS:
            with tempfile.TemporaryDirectory() as name:
                tmp = Path(name).resolve()
                for op in inputs.generate(workload, seed, tmp / "in"):
                    label = f"{workload}/seed{seed}/{op.config.name}"
                    yield from run_config(label, op.config, tmp, root)


def differing(before: list[str], after: list[str]) -> list[str]:
    """The lines of two digest runs that differ, matched by their
    ``<config> <part>``: ``- <line>`` from ``before`` and ``+ <line>`` from
    ``after`` (a part that only one run has shows on its side alone), in the
    order the parts first appear, then one line with the count of parts
    that differ out of all parts."""
    old, new = ({line.rpartition(" ")[0]: line for line in lines} for lines in (before, after))
    keys = list(dict.fromkeys([*old, *new]))
    changed = [key for key in keys if old.get(key) != new.get(key)]
    lines = []
    for key in changed:
        lines += [f"- {old[key]}"] if key in old else []
        lines += [f"+ {new[key]}"] if key in new else []
    return lines + [f"{len(changed)} of {len(keys)} digest lines differ"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="GIT_REF",
                        help="print only the lines that differ from this ref's tree")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in tree_digests(ROOT):
            print(line, flush=True)
        return 0
    with tempfile.TemporaryDirectory() as name:
        ref_root = Path(name).resolve()
        tar = subprocess.run(["git", "archive", args.against], cwd=ROOT, capture_output=True,
                             check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_root)], input=tar, check=True)
        before = list(tree_digests(ref_root))
    print("\n".join(differing(before, list(tree_digests(ROOT)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
