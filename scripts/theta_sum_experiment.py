#!/usr/bin/env python3
"""Round-trip experiment for theta-sum decomposition.

Generates random iterated connected sums of thick theta graphs, decomposes
them, and checks that the recovered summand multiset matches the construction
and that replaying the recorded splits reproduces the graph cell-for-cell.

With --scaling it instead prints the decomposition time of one sum of 16
to 1024 summands (random_theta_sum, seeded with the count), the twin-graph
verdict included, and the time of its replay, and checks that replay:

    PYTHONPATH=src python3 scripts/theta_sum_experiment.py --scaling

With --union DEPTH it decomposes one expansion instead: the reflection
system of the theta graph with three edges, expanded to DEPTH at resolution
2 (4,299 copies at depth 4). It checks the summands against the copies of
the expansion and the replay against its graph, and prints the copy and
summand counts and both times:

    PYTHONPATH=src python3 scripts/theta_sum_experiment.py --union 4
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "tests")
from generators import random_theta_sum  # noqa: E402
from oracles import expansion_summands  # noqa: E402

from tog.multigraph import theta_graph  # noqa: E402
from tog.rcs import expand_to_depth, init, reflection_system  # noqa: E402
from tog.twin_theta import theta_sum_decomposition  # noqa: E402

SCALING_COUNTS = (16, 32, 64, 128, 256, 512, 1024)


def union_round_trip(depth: int):
    pu = expand_to_depth(init(reflection_system(theta_graph(3)), 0, 2, cap=100000), depth)
    g = pu.graph
    t0 = time.perf_counter()
    tree = theta_sum_decomposition(g)
    elapsed = time.perf_counter() - t0
    assert sorted(tree.summands) == expansion_summands(pu), "summands differ from the copies"
    t0 = time.perf_counter()
    replayed = tree.replay()
    replay = time.perf_counter() - t0
    assert replayed == g, "replay did not reproduce the expansion's graph"
    print(f"depth {depth}  {len(pu.nodes):6d} copies  {len(tree.summands):6d} summands"
          f"  {elapsed:8.3f} s  replay {replay:8.3f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scaling", action="store_true", help="time 16 to 1024 summands")
    ap.add_argument("--union", type=int, metavar="DEPTH", help="round-trip one expansion")
    args = ap.parse_args()
    if args.union is not None:
        union_round_trip(args.union)
        return
    if args.scaling:
        for count in SCALING_COUNTS:
            g, sizes = random_theta_sum(random.Random(count), count)
            t0 = time.perf_counter()
            tree = theta_sum_decomposition(g)
            elapsed = time.perf_counter() - t0
            assert sorted(tree.summands) == sizes
            t0 = time.perf_counter()
            replayed = tree.replay()
            replay = time.perf_counter() - t0
            assert replayed == g, "replay did not reproduce the input graph"
            print(f"{count:4d} summands  {len(g.edges):5d} edges  {elapsed:8.3f} s"
                  f"  replay {replay:8.3f} s")
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
