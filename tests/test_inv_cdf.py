"""The private inverse normal CDF that ``mroot.probes.sphere_fan`` maps
over its points is ``NormalDist().inv_cdf`` bit for bit.

``statistics._normal_dist_inv_cdf(p, mu, sigma)`` is Wichura's AS241,
which ``NormalDist.inv_cdf`` calls once it has checked 0 < p < 1.  A
future Python that renames or changes it fails here.  The test uses the
standard library only, so it also runs without numpy or pytest:

    python tests/test_inv_cdf.py
"""

import math
import random
import statistics
from statistics import NormalDist

# sphere_fan clips its points to [CLIP, 1 - CLIP]
CLIP = 1e-12


def _same_bits(points):
    inv = statistics._normal_dist_inv_cdf
    ref = NormalDist().inv_cdf
    for p in points:
        got, want = inv(p, 0.0, 1.0), ref(p)
        assert got.hex() == want.hex(), (p, got, want)


def _log_spaced(lo, hi, count):
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * i / (count - 1)) for i in range(count)]


def _central(p):
    return abs(p - 0.5) <= 0.425


def _ulps_around(p, count=3):
    out = [p]
    for toward in (0.0, 1.0):
        q = p
        for _ in range(count):
            q = math.nextafter(q, toward)
            out.append(q)
    return out


# the points on both sides of the two switches between the central and
# the tail branches
EDGES = _ulps_around(0.075) + _ulps_around(0.925)


def test_central_branch():
    # |p - 0.5| <= 0.425: the rational approximation in q = p - 0.5
    rng = random.Random(0)
    points = [p for p in EDGES if _central(p)] + [0.5]
    assert min(points) < 0.0751 and max(points) > 0.9249
    points += [0.075 + 0.85 * i / 4999 for i in range(5000)]
    points += [rng.uniform(0.075, 0.925) for _ in range(5000)]
    points = [p for p in points if _central(p)]
    assert len(points) > 9990
    _same_bits(points)


def test_tail_branches_down_to_the_clip():
    # |p - 0.5| > 0.425: r = sqrt(-log(min(p, 1 - p))), with one
    # approximation for r <= 5 and one for r > 5, which the points
    # below exp(-25) ~ 1.4e-11 reach
    rng = random.Random(1)
    low = _ulps_around(CLIP) + _ulps_around(math.exp(-25.0))
    low += _log_spaced(CLIP, 0.075, 5000)
    low += [math.exp(rng.uniform(math.log(CLIP), math.log(0.075)))
            for _ in range(5000)]
    low = [p for p in low if CLIP <= p and not _central(p)]
    r = [math.sqrt(-math.log(p)) for p in low]
    assert sum(v <= 5.0 for v in r) > 1000 and sum(v > 5.0 for v in r) > 100
    high = [1.0 - p for p in low]
    edges = [p for p in EDGES if not _central(p)]
    assert min(edges) < 0.075 and max(edges) > 0.925
    _same_bits(low + high + edges)


if __name__ == "__main__":
    import sys
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print(f"{sys.version.split()[0]}: inverse normal CDF ok")
