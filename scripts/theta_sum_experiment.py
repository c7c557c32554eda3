#!/usr/bin/env python3
"""Round-trip experiment for theta-sum decomposition.

Generates random iterated connected sums of thick theta graphs, decomposes
them, and checks that the recovered summand multiset matches the construction
and that replaying the recorded splits reproduces the graph cell-for-cell.

With --scaling it instead prints the decomposition time of one sum of 16,
32, 64, 128 and 256 summands (random_theta_sum, seeded with the count), and
checks each replay. The last column times the twin-pair census _twin_pairs
alone, which the decomposition runs once, on the same sum:

    PYTHONPATH=src python3 scripts/theta_sum_experiment.py --scaling
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "tests")
from generators import random_theta_sum  # noqa: E402

from tog.twin_theta import _twin_pairs, theta_sum_decomposition  # noqa: E402

SCALING_COUNTS = (16, 32, 64, 128, 256)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scaling", action="store_true", help="time 16 to 256 summands")
    args = ap.parse_args()
    if args.scaling:
        for count in SCALING_COUNTS:
            g, sizes = random_theta_sum(random.Random(count), count)
            t0 = time.perf_counter()
            tree = theta_sum_decomposition(g)
            elapsed = time.perf_counter() - t0
            assert sorted(tree.summands) == sizes
            assert tree.replay() == g, "replay did not reproduce the input graph"
            t0 = time.perf_counter()
            _twin_pairs(g)
            census = time.perf_counter() - t0
            print(f"{count:4d} summands  {len(g.edges):5d} edges  {elapsed:8.3f} s"
                  f"  census {census:8.3f} s")
        return

    rng = random.Random(args.seed)
    t0 = time.monotonic()
    size_hist = {}
    for i in range(args.trials):
        g, sizes = random_theta_sum(rng)
        tree = theta_sum_decomposition(g)
        assert sorted(tree.summands) == sizes, (sorted(tree.summands), sizes)
        assert tree.replay() == g, "replay did not reproduce the input graph"
        size_hist[len(sizes)] = size_hist.get(len(sizes), 0) + 1
    elapsed = time.monotonic() - t0
    print(f"{args.trials} round trips OK in {elapsed:.2f}s")
    print("summand-count histogram:", dict(sorted(size_hist.items())))


if __name__ == "__main__":
    main()
