"""Time the descent DAG of lifted families, the exact layer at scale.

For each (k, d) the family is the lift of k polynomials of degree d
(``lift_to_independent``), whose DAG depends only on (k, d).  Run from the
root of a checkout:

    python3 ci/dag_scale.py

It prints one line per (k, d): the DAG's nodes and edges, the sha256 of its
text (``dag_to_text``) and the seconds of one in-process ``induction_dag``
call, with the caches of ``fpet.fpoly`` cleared before it; it checks
nothing.  The seconds depend on the machine: compare two checkouts on one.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fpet import fpoly  # noqa: E402
from fpet.order import dag_to_text, induction_dag  # noqa: E402

SIZES = ((5, 4), (6, 3), (8, 2))


def main() -> int:
    for k, d in SIZES:
        lifted, _ = fpoly.lift_to_independent([[[1]] * d] * k)
        for cached in (fpoly.subtract, fpoly.lower_part, fpoly.family_is_good, fpoly.is_good):
            cached.cache_clear()
        start = time.perf_counter()
        dag = induction_dag(lifted, max_nodes=10**6)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(dag_to_text(dag).encode()).hexdigest()
        print(f"k={k} d={d} nodes={dag.node_count} edges={len(dag.edges)} "
              f"sha256={digest} induction_dag_s={seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
