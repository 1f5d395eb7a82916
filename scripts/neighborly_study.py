#!/usr/bin/env python3
"""Hop-distance and clustering study on generated networks.

Reports, per network: the max hop distance between centers of intersecting
disks with and without axis shortcuts (searches cut off at a depth budget),
and the max component count among each disk's smaller neighbors, with the
wall times of the grid augmentation and of the hop-distance check.
"""

import argparse
import csv
import time

from roadgeom import crossings, gen_gotham
from roadgeom.augment import clustering_check, grid_augment, neighborly_check
from roadgeom.disks import build_disk_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sides", default="8,12,16")
    ap.add_argument("--expressways", type=int, default=2)
    ap.add_argument("--cutoff", type=int, default=250)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="neighborly_study.csv")
    args = ap.parse_args()

    with open(args.out, "w", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(
            ["network", "n", "max_hops_augmented", "max_hops_plain",
             "plain_truncated", "max_components", "grid_augment_s", "neighborly_s"]
        )
        for side in (int(s) for s in args.sides.split(",") if s):
            g = gen_gotham(side, args.expressways, args.seed)
            system = build_disk_system(g)
            planar = crossings.planarize(g, crossings.find_crossings(g))
            start = time.perf_counter()
            aug = grid_augment(planar)
            augment_s = time.perf_counter() - start
            start = time.perf_counter()
            rep = neighborly_check(aug, system, cutoff=args.cutoff)
            seconds = time.perf_counter() - start
            clus = clustering_check(system)
            w.writerow(
                [
                    f"gotham-{side}",
                    g.n,
                    rep.max_hops_augmented,
                    rep.max_hops_plain,
                    int(rep.plain_truncated),
                    clus.max_components,
                    f"{augment_s:.3f}",
                    f"{seconds:.3f}",
                ]
            )
            print(
                f"gotham-{side}: hops aug={rep.max_hops_augmented} "
                f"plain={rep.max_hops_plain} components={clus.max_components} "
                f"grid_augment={augment_s:.2f}s neighborly={seconds:.2f}s"
            )
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
