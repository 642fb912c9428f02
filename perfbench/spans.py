"""Spans around calls into qautocall's layers, recorded from outside the package.

:class:`Tracer` wraps the public functions each layer calls in another layer
(looked up at their call sites, e.g. ``qautocall.cli.build_pricing_circuit``)
plus ``Statevector.apply``/``apply_all``, so no file under ``src/`` changes.
Spans are kept in memory per pass; :func:`layer_metrics` folds the spans of
one pass into per-layer metrics named ``<layer>.<metric>[.<kind>][.q<width>]``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

# (module, attribute, span name): each function wrapped where it is called.
_CALLS = (
    ("qautocall.cli", "parse_config", "cli.parse_config"),
    ("qautocall.cli", "write_csv", "cli.write_csv"),
    ("qautocall.cli", "fit_format", "circuit.fit_format"),
    ("qautocall.cli", "build_pricing_circuit", "circuit.build"),
    ("qautocall.cli", "post_process", "circuit.post_process"),
    ("qautocall.cli", "exact_amplitude", "estimation.exact_amplitude"),
    ("qautocall.cli", "iqae_estimate", "estimation.iqae_estimate"),
    ("qautocall.cli", "closed_form_quantized", "oracles.cf_quant"),
    ("qautocall.cli", "closed_form_discretized", "oracles.cf_disc"),
    ("qautocall.cli", "mc_price", "oracles.mc"),
    ("qautocall.cli", "mc_price_discretized", "oracles.mc_disc"),
    ("qautocall.cli", "d_total", "resources.d_total"),
    ("qautocall.circuit", "gaussian_amplitudes", "loading.gaussian_amplitudes"),
    ("qautocall.circuit", "partial_exponential_prep_ops", "loading.partial_exp_prep"),
    ("qautocall.estimation", "build_grover", "estimation.build_grover"),
    ("qautocall.estimation", "allocate", "simulator.allocate"),
    ("qautocall.estimation", "probability", "simulator.probability"),
    ("qautocall.estimation", "sample", "simulator.sample"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: Span | None
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``with tracer.installed(): ...``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._grover: dict[int, list] = {}  # holds each list, so no id is reused

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, attrs=attrs)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.ok = False
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.seconds
            self.spans.append(s)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                _annotate(self, s, args, result)
                return result

        return traced

    @contextmanager
    def installed(self):
        from qautocall.simulator import Statevector

        saved = []
        for module_name, attr, name in _CALLS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

        apply, apply_all = Statevector.apply, Statevector.apply_all
        tracer = self

        def traced_apply(state, op):
            with tracer.span("simulator.apply", kind=type(op).__name__, width=state.num_qubits):
                return apply(state, op)

        def traced_apply_all(state, ops):
            if tracer._grover.get(id(ops)) is not ops:
                return apply_all(state, ops)
            with tracer.span("estimation.grover_step"):
                return apply_all(state, ops)

        saved += [(Statevector, "apply", apply), (Statevector, "apply_all", apply_all)]
        Statevector.apply, Statevector.apply_all = traced_apply, traced_apply_all
        try:
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def _annotate(tracer: Tracer, s: Span, args, result):
    """Counts computed from a call's inputs and result, stored on its span."""
    if s.name == "circuit.build":
        ops = result.ops
        s.attrs.update(
            width=result.layout.num_qubits,
            kinds=Counter(type(op).__name__ for op in ops),
            table_bytes=sum(op.table.nbytes for op in ops if type(op).__name__ == "Classical"),
        )
    elif s.name in ("oracles.cf_quant", "oracles.cf_disc"):
        contract, grid = args[0], args[1]
        s.attrs["enumerated"] = (2**grid.k) ** contract.steps
    elif s.name in ("oracles.mc", "oracles.mc_disc"):
        s.attrs["simulated"] = result.paths
    elif s.name == "estimation.build_grover":
        tracer._grover[id(result)] = result
    elif s.name == "estimation.iqae_estimate":
        s.attrs.update(
            rounds=result.rounds, shots_total=result.shots_total,
            oracle_calls=result.oracle_calls,
        )


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass: seconds summed per span, plus counts.

    Times include failed calls. Counts describe what was built or evaluated;
    byte counts are computed from array sizes, not measured.
    """
    out: dict[str, tuple[float, str]] = {}
    seconds: dict[str, float] = defaultdict(float)
    applies: dict[tuple[str, int], list[float]] = defaultdict(list)
    grover_steps, estimates, widths = [], [], []
    iqae = False
    counts: Counter = Counter()
    for s in spans:
        if s.name == "cli.main":
            seconds["cli.self"] += s.seconds - s.child_s
        elif s.name == "simulator.apply":
            applies[(s.attrs["kind"], s.attrs["width"])].append(s.seconds)
            continue
        elif s.name == "estimation.grover_step":
            if s.ok:
                grover_steps.append(s.seconds)
            continue
        else:
            seconds[s.name] += s.seconds
        if s.name == "circuit.build" and s.ok:
            w = s.attrs["width"]
            widths.append(w)
            for kind, n in s.attrs["kinds"].items():
                out[f"circuit.ops.{kind}.q{w}"] = (n, "count")
            out[f"circuit.table_bytes.q{w}"] = (s.attrs["table_bytes"], "B_computed")
        counts["oracles.enumerated_paths"] += s.attrs.get("enumerated", 0)
        counts["oracles.simulated_paths"] += s.attrs.get("simulated", 0)
        if s.name == "estimation.iqae_estimate":
            iqae = True
            if s.ok:
                estimates.append(s.attrs)

    if widths:
        out["circuit.num_qubits"] = (max(widths), "count")
    for name, value in seconds.items():
        out[f"{name}_s"] = (value, "s")
    for (kind, w), times in applies.items():
        total = sum(times)
        out[f"simulator.apply_s.{kind}.q{w}"] = (total, "s")
        out[f"simulator.amp_rate.{kind}.q{w}"] = (len(times) * 2**w / total, "1/s")
        out[f"simulator.state_bytes.q{w}"] = (16 * 2**w, "B_computed")
    for name, n in counts.items():
        out[name] = (n, "count")
    if iqae:  # success-only figures: None until an estimate or step completes
        out["estimation.grover_step_s"] = (_median(grover_steps), "s")
        for key in ("rounds", "shots_total", "oracle_calls"):
            out[f"estimation.{key}"] = (_median([e[key] for e in estimates]), "count")
    return out


def _median(values):
    return median(values) if values else None
