#!/usr/bin/env python3
"""Ply statistics across generated road-like families.

For each network: max center ply, the floor(sqrt(n))-th largest center ply,
the max disk-intersection degree, and the system ply (the deepest point of
the plane, not only of the centers).  Hub-and-spoke families show the
characteristic gap (a few very deep centers while the sqrt(n)-th statistic
stays a small constant).
"""

import argparse
import csv

from roadgeom import gen_gotham, gen_hub_spoke, gen_random_geometric
from roadgeom.arrangement import system_ply
from roadgeom.disks import build_disk_system, ply_report

FAMILIES = {
    "gotham": lambda size, seed: gen_gotham(max(2, round(size**0.5)), 4, seed),
    "rgg": lambda size, seed: gen_random_geometric(size, 1.5 / size**0.5, seed),
    "hubspoke": lambda size, seed: gen_hub_spoke(max(12, round(size**0.5)), 21, seed),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=sorted(FAMILIES), default="hubspoke")
    ap.add_argument("--sizes", default="784,1296,1936")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="ply_study.csv")
    args = ap.parse_args()

    with open(args.out, "w", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(
            ["network", "n", "max_center_ply", "sqrt_n_th_ply", "max_disk_degree", "system_ply"]
        )
        for size in (int(s) for s in args.sizes.split(",") if s):
            g = FAMILIES[args.family](size, args.seed)
            system = build_disk_system(g)
            rep = ply_report(system)
            ply = system_ply(system)
            w.writerow(
                [
                    f"{args.family}-{size}",
                    g.n,
                    rep.max_center_ply,
                    rep.kth_largest_center_ply,
                    rep.max_disk_degree,
                    ply,
                ]
            )
            print(
                f"{args.family}-{size}: n={g.n} max_ply={rep.max_center_ply} "
                f"sqrt_n_th={rep.kth_largest_center_ply} degree={rep.max_disk_degree} "
                f"system_ply={ply}"
            )
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
