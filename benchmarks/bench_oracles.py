"""Per-layer timings of the classical reference oracles and the resource model.

Run from the root of a checkout, with the installed pytest-benchmark::

    python -m pytest benchmarks/bench_oracles.py --benchmark-json=BENCH.json

The file sits outside ``testpaths``, so the tier-1 run does not collect it.
On Table-2 it times ``mc`` and ``mc-disc`` (k = 7) at 10**6 paths, alone and
both through one ``mc_prices`` call on one draw and one shared screen per
block; both at k = 1, whose two-point grid makes the shared bounds wide;
``mc`` with ``mc-disc`` at k = 7, 9 and 11, and at k = 1 to 7, in one call;
and both on its 20-step variant at 2 * 10**5 paths, where a block's bucket
screen settles the most steps; ``cf-quant`` (p = 12) and ``cf-disc`` at
k = 7; and ``d_total`` at its default parameters.
"""

import dataclasses

import pytest

from qautocall import AutocallableContract, BinaryOption
from qautocall.circuit import fit_format
from qautocall.loading import GaussianGridSpec
from qautocall.oracles import closed_form_discretized, closed_form_quantized, mc_prices
from qautocall.resources import ResourceParams, d_total

TABLE2 = AutocallableContract(
    notional=18.0,
    dt=1.0,
    steps=3,
    mu=0.1274,
    sigma=0.2382,
    rate=0.04,
    barrier=0.7,
    strike=1.0,
    binaries=(BinaryOption(1, 1.1, 2.0), BinaryOption(2, 1.1, 5.0)),
)
TABLE2_20 = dataclasses.replace(TABLE2, steps=20)
GRID = GaussianGridSpec(k=7, s_min=3.0)
PATHS = 10**6


@pytest.mark.parametrize("kinds", ["mc", "mc-disc", "both", "both-k1", "k7-9-11", "k1-to-7"])
def test_monte_carlo(benchmark, kinds):
    grids = {
        "mc": [None],
        "mc-disc": [GRID],
        "both": [None, GRID],
        "both-k1": [None, GaussianGridSpec(k=1, s_min=3.0)],
        "k7-9-11": [None] + [GaussianGridSpec(k=k, s_min=3.0) for k in (7, 9, 11)],
        "k1-to-7": [None] + [GaussianGridSpec(k=k, s_min=3.0) for k in range(1, 8)],
    }[kinds]
    results = benchmark(mc_prices, TABLE2, grids, PATHS, 1)
    benchmark.extra_info.update(paths=PATHS, means=[r.mean for r in results])


def test_monte_carlo_20_steps(benchmark):
    paths = 2 * 10**5
    results = benchmark(mc_prices, TABLE2_20, [None, GRID], paths, 1)
    benchmark.extra_info.update(paths=paths, means=[r.mean for r in results])


def test_cf_quant(benchmark):
    fmt = fit_format(TABLE2, GRID, 12)
    benchmark.extra_info.update(value=benchmark(closed_form_quantized, TABLE2, GRID, fmt))


def test_cf_disc(benchmark):
    benchmark.extra_info.update(value=benchmark(closed_form_discretized, TABLE2, GRID))


def test_d_total(benchmark):
    report = benchmark(d_total, ResourceParams())
    benchmark.extra_info.update(d_total=report.d_total)
