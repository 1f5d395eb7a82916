"""Traced peak memory of the joins on the rgg-planarize graph.

tracemalloc counts numpy's array buffers, and for a fixed input every
allocation has a fixed size, so the peaks below do not vary between runs.
Each bound is 1.25 times the peak measured when the joins went to fixed
blocks of candidates: find_crossings +17.3 MiB, planarize +19.2 MiB and
build_disk_system +6.6 MiB.  Before that they peaked at +47.1, +26.1 and
+17.3 MiB on this graph.
"""

import tracemalloc

import roadgeom as rg
from roadgeom import crossings as cr
from roadgeom.disks import build_disk_system

MIB = 2.0**20


def traced_peak(fn, *args):
    """The peak of traced memory while fn(*args) runs, above what was
    traced when it started, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


def test_join_peaks_on_rgg_8k(tmp_path):
    n = 8192
    paths = tmp_path / "g.gr", tmp_path / "g.co"
    rg.save_dimacs(rg.gen_random_geometric(n, 1.5 / n**0.5, 1), *paths)
    g = rg.load_dimacs(*paths)
    table = cr.find_crossings(g)
    # find_crossings again, on a fresh copy: the first call kept its table on g.
    fresh = rg.GeometricGraph(g.xy, g.edge_u, g.edge_v, g.edge_weight, g.edge_level)
    peaks = {
        "find_crossings": traced_peak(cr.find_crossings, fresh),
        "planarize": traced_peak(cr.planarize, g, table),
        "build_disk_system": traced_peak(build_disk_system, g),
    }
    bounds = {"find_crossings": 21.6, "planarize": 24.0, "build_disk_system": 8.2}
    assert all(peaks[k] <= bounds[k] for k in bounds), peaks
