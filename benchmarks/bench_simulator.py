"""Per-layer timings of the pricing circuit: building it, and running A|0>.

Run from the root of a checkout, with the installed pytest-benchmark::

    python -m pytest benchmarks/bench_simulator.py --benchmark-json=BENCH.json

The file sits outside ``testpaths``, so the tier-1 run does not collect it.
A|0> is timed on Table-2 at (p, k) = (2,2), (4,3) and (6,4), on 22, 29 and
36 qubits; the circuit build at (2,2). Each timed call runs the whole circuit
on a fresh state, so rounds do not share work.
"""

import pytest

from qautocall import AutocallableContract, BinaryOption
from qautocall.circuit import build_pricing_circuit, fit_format
from qautocall.loading import GaussianGridSpec
from qautocall.simulator import allocate

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


def _inputs(p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    return TABLE2, grid, fit_format(TABLE2, grid, p)


@pytest.mark.parametrize("p, k", [(2, 2), (4, 3), (6, 4)])
def test_prepare_a(benchmark, p, k):
    pc = build_pricing_circuit(*_inputs(p, k))
    n = pc.layout.num_qubits
    state = benchmark(lambda: allocate(n).apply_all(pc.ops))
    benchmark.extra_info.update(num_qubits=n, ops=len(pc.ops), stored=len(state.indices))


@pytest.mark.parametrize("p, k", [(2, 2)])
def test_build_pricing_circuit(benchmark, p, k):
    pc = benchmark(build_pricing_circuit, *_inputs(p, k))
    benchmark.extra_info.update(num_qubits=pc.layout.num_qubits, ops=len(pc.ops))
