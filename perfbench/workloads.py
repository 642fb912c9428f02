"""Seeded inputs and correctness gates for the qautocall benchmark.

Every workload prices the Table-2 contract (T = 3, two binaries, barrier 0.7,
strike 1.0, s_min = 3.0). :func:`generate` writes the INI configs of one
workload into a work directory and returns the operations of one pass in an
order drawn from the seed; qautocall receives only those files. Each
operation carries a gate that reads the CSV the program wrote and returns a
reason when the output is wrong.

Why each workload:

- ``exact-table2``: ``price`` with quantum-exact at (p, k) = (2,1), (3,1) and
  (2,2), which is 19, 21 and 22 qubits. Nearly all time is in simulator
  kernels, so kernel and memory work shows here; the 22-qubit point carries
  the target of under 2 s.
- ``iqae-table2``: ``price`` with quantum-iqae at (2,1). It drives the
  simulator differently: repeated forward and inverse passes over one state,
  a full-width PhaseOracle and ``sample``. Where IQAE fixes and an analytic
  IQAE backend show.
- ``reference-sweep``: one single-threaded ``sweep`` of cf-quant, cf-disc, mc
  and mc-disc at k = 7 (2^21 enumerated paths) over p in {4..12} with 10^6
  MC paths, plus one ``resources`` call. It never touches the simulator, so a
  simulator-only change must predict no change here, and it covers the
  cf-quant -> cf-disc convergence in p.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONTRACT = """\
[contract]
notional = 18.0
dt = 1.0
steps = 3
mu = 0.1274
sigma = 0.2382
rate = 0.04
barrier = 0.7
strike = 1.0
binaries = 1:1.1:2.0, 2:1.1:5.0
"""
S_MIN = 3.0

#: (p, k) of the exact points, named by the qubits their circuit uses
EXACT_POINTS = {"q19": (2, 1), "q21": (3, 1), "q22": (2, 2)}
EXACT_TOL = 1e-9

IQAE_POINT = (2, 1)
IQAE_EPSILON = 0.05
IQAE_ALPHA = 0.05
IQAE_SHOTS = 100
IQAE_ESTIMATES = 4

SWEEP_K = 7
SWEEP_P = (4, 6, 8, 10, 12)
SWEEP_METHODS = ("cf-quant", "cf-disc", "mc", "mc-disc")
SWEEP_PATHS = 1_000_000
CONVERGENCE_TOL = 1e-4
MC_STDERRS = 4.0
RESOURCE_M = tuple(range(4, 17))


@dataclass
class Op:
    """One closed-loop operation: a qautocall CLI call and its gate."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[str], str | None]
    paths: int = 0  # enumerated plus simulated paths the operation evaluates


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _grid(k: int) -> str:
    return f"[grid]\nk = {k}\ns_min = {S_MIN}\n"


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    return path


def _op(workdir: Path, name: str, command: str, text: str, check, paths: int = 0) -> Op:
    config = _write(workdir, name, text)
    out = workdir / f"{name}.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "sweep":
        argv += ["--threads", "1"]
    return Op(name, argv, out, check, paths)


def _reference(text: str):
    """cf-quant value and amplitude scale of a price config, computed directly."""
    from qautocall.circuit import QuantizedModel, fit_format
    from qautocall.cli import parse_config
    from qautocall.oracles import closed_form_quantized

    config = parse_config(text)
    fmt = fit_format(config.contract, config.grid, config.frac_bits)
    value = closed_form_quantized(config.contract, config.grid, fmt)
    return value, QuantizedModel(config.contract, config.grid, fmt).mapping.scale


def _exact(rng: random.Random, workdir: Path) -> list[Op]:
    seed = rng.randrange(2**31)
    names = list(EXACT_POINTS)
    rng.shuffle(names)
    ops = []
    for name in names:
        p, k = EXACT_POINTS[name]
        text = (
            CONTRACT + _grid(k) + f"[fixedpoint]\np = {p}\n"
            f"[estimation]\nmethod = quantum-exact\nseed = {seed}\n"
        )
        ref, _ = _reference(text)

        def check(csv_text, ref=ref):
            (row,) = csv_rows(csv_text)
            err = abs(float(row["value"]) - ref)
            return None if err <= EXACT_TOL else f"|exact - cf-quant| = {err:.3g}"

        ops.append(_op(workdir, name, "price", text, check))
    return ops


def _iqae(rng: random.Random, workdir: Path) -> list[Op]:
    p, k = IQAE_POINT
    seeds = [rng.randrange(2**31) for _ in range(IQAE_ESTIMATES)]
    ops = []
    for seed in seeds:
        text = (
            CONTRACT + _grid(k) + f"[fixedpoint]\np = {p}\n"
            f"[estimation]\nmethod = quantum-iqae\nepsilon = {IQAE_EPSILON}\n"
            f"alpha = {IQAE_ALPHA}\nshots = {IQAE_SHOTS}\nseed = {seed}\n"
        )
        ref, scale = _reference(text)

        # Convergence read from the output: a theta interval narrower than
        # epsilon/pi maps to a payoff interval at most 2*epsilon*scale wide.
        def check(csv_text, ref=ref, scale=scale):
            (row,) = csv_rows(csv_text)
            low, high = float(row["ci_low"]), float(row["ci_high"])
            if high - low > 2.0 * IQAE_EPSILON * scale * (1.0 + 1e-9):
                return f"not converged: CI width {high - low:.4g}"
            if not low <= ref <= high:
                return f"CI [{low:.6g}, {high:.6g}] misses cf-quant {ref:.6g}"
            return None

        ops.append(_op(workdir, f"iqae-{seed}", "price", text, check))
    return ops


def _check_sweep(csv_text: str) -> str | None:
    rows = csv_rows(csv_text)
    by_method: dict[str, list[dict]] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    got = {m: len(v) for m, v in by_method.items()}
    want = {"cf-quant": len(SWEEP_P), "cf-disc": 1, "mc": 1, "mc-disc": 1}
    if got != want:
        return f"sweep rows {got}, expected {want}"
    cf_disc = float(by_method["cf-disc"][0]["value"])
    top = max(by_method["cf-quant"], key=lambda r: int(r["p"]))
    gap = abs(float(top["value"]) - cf_disc)
    if gap > CONVERGENCE_TOL:
        return f"|cf-quant(p={top['p']}) - cf-disc| = {gap:.3g}"
    mc_disc = by_method["mc-disc"][0]
    dev = abs(float(mc_disc["value"]) - cf_disc)
    if dev > MC_STDERRS * float(mc_disc["stderr"]):
        return f"mc-disc off cf-disc by {dev / float(mc_disc['stderr']):.2f} stderr"
    return None


def _check_resources(csv_text: str) -> str | None:
    rows = csv_rows(csv_text)
    ms = tuple(int(r["m"]) for r in rows)
    if ms != RESOURCE_M:
        return f"resource rows for m = {ms}, expected {RESOURCE_M}"
    bad = [r["m"] for r in rows if not 0.0 < float(r["d_total"]) < math.inf]
    return f"d_total not positive and finite for m = {bad}" if bad else None


def _sweep(rng: random.Random, workdir: Path) -> list[Op]:
    ps = list(SWEEP_P)
    methods = list(SWEEP_METHODS)
    rng.shuffle(ps)
    rng.shuffle(methods)
    sweep_text = (
        CONTRACT + _grid(SWEEP_K)
        + f"[estimation]\npaths = {SWEEP_PATHS}\nseed = {rng.randrange(2**31)}\n"
        f"[sweep]\np_values = {' '.join(map(str, ps))}\nk_values = {SWEEP_K}\n"
        f"methods = {', '.join(methods)}\n"
    )
    enumerated = (len(SWEEP_P) + 1) * (2**SWEEP_K) ** 3  # cf-quant per p, cf-disc once
    resources_text = CONTRACT + f"[resources]\nm_values = {' '.join(map(str, RESOURCE_M))}\n"
    ops = [
        _op(workdir, "sweep", "sweep", sweep_text, _check_sweep,
            paths=enumerated + 2 * SWEEP_PATHS),
        _op(workdir, "resources", "resources", resources_text, _check_resources),
    ]
    rng.shuffle(ops)
    return ops


_GENERATORS = {"exact-table2": _exact, "iqae-table2": _iqae, "reference-sweep": _sweep}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the configs of ``workload`` for ``seed``; return one pass of ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
