"""Benchmark of qautocall: one closed-loop client calling ``qautocall.cli.main``.

Run from any directory of a checkout::

    python3 perfbench/run.py --workload exact-table2 --seed 1 --seconds 30 --trace 0

The inputs (INI configs and their order) are generated from ``--seed`` into
``.bench_work/`` at the root of the checkout. The timed section repeats passes
over the workload's operations, one operation at a time, until ``--seconds``
have elapsed; a pass that has started is finished. Each operation's CSV is
gated for correctness and must be byte-identical to the first output of the
same operation; a nonzero exit, an uncaught exception or a failed gate counts
the operation as failed.

``--trace 0`` reports end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes and reports per-layer metrics from the traced ones, plus the
tracing overhead (traced minus untraced pass wall time), and writes every span
to ``.bench_work/<workload>-spans.jsonl``. Every metric is
printed as ``name value unit``; the last line is one JSON object with the
metrics ``BENCHMARK.json`` lists for the chosen ``--trace``.
"""

from __future__ import annotations

import os
import sys
import time

SCRIPT_START = time.perf_counter()
# One process, one thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, median_low  # noqa: E402

from spans import Span, Tracer, layer_metrics  # noqa: E402
from workloads import EXACT_POINTS, WORKLOADS, Op, csv_rows, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # one in this process, the rest in fresh interpreters
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Import qautocall from this checkout and generate the inputs."""
    sys.path.insert(0, str(SRC))
    import qautocall.cli

    if Path(qautocall.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qautocall imported from {qautocall.cli.__file__}, not {SRC}")
    return generate(workload, seed, workdir)


def probe_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, measured the same way as this one's."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0",
         "--setup-probe", str(WORK / f"{args.workload}-probe")],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str | None
    csv_text: str = ""


class Client:
    """Runs operations one at a time and gates each output."""

    def __init__(self):
        import qautocall.cli

        self._main = qautocall.cli.main
        self._first_output: dict[str, bytes] = {}
        self._reported: set[str] = set()

    def run(self, op: Op, tracer: Tracer | None) -> OpResult:
        op.out.unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self._main(op.argv)
            else:
                with tracer.span("cli.main"):
                    code = self._main(op.argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # the failure is counted; the run goes on
            code = None
            error = type(exc).__name__
            if error not in self._reported:
                self._reported.add(error)
                traceback.print_exc()
        seconds = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is not None:
            return OpResult(op.name, seconds, error)
        return self._gate(op, seconds)

    def _gate(self, op: Op, seconds: float) -> OpResult:
        data = op.out.read_bytes()
        first = self._first_output.setdefault(op.name, data)
        text = data.decode("utf-8")
        if data != first:
            reason = "CSV differs from the first run of the same input"
        else:
            try:
                reason = op.check(text)
            except (ValueError, KeyError) as exc:
                reason = f"malformed CSV ({exc!r})"
        if reason is None:
            return OpResult(op.name, seconds, None, text)
        print(f"{op.name}: gate: {reason}", file=sys.stderr)
        return OpResult(op.name, seconds, f"gate: {reason}", text)


@dataclass
class Pass:
    results: list[OpResult]
    spans: list[Span] | None = None  # None when the pass ran untraced

    @property
    def traced(self) -> bool:
        return self.spans is not None

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def run_passes(ops: list[Op], seconds: float, trace: bool) -> list[Pass]:
    """Closed loop until the deadline; with tracing, untraced and traced
    passes alternate and at least one of each runs."""
    client = Client()
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer.installed():
                results = [client.run(op, tracer) for op in ops]
            passes.append(Pass(results, tracer.spans))
        else:
            passes.append(Pass([client.run(op, None) for op in ops]))
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 2):
            return passes


def _median(values):
    return median(values) if values else None


def end_to_end(workload: str, ops: list[Op], passes: list[Pass], setups: list[float]) -> dict:
    plain = [p for p in passes if not p.traced]
    ok = [r for p in plain for r in p.results if r.error is None]
    results = [r for p in passes for r in p.results]
    failed = sum(r.error is not None for r in results)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(p.wall for p in plain), "s"),
        "op_s_p50": (_median([r.seconds for r in ok]), "s"),
    }
    if workload == "exact-table2":
        for name in EXACT_POINTS:
            metrics[f"{name}_s"] = (_median([r.seconds for r in ok if r.name == name]), "s")
    elif workload == "reference-sweep":
        paths = sum(op.paths for op in ops)
        sweep_s = _median([r.seconds for r in ok if r.name == "sweep"])
        metrics["paths_per_s"] = (paths / sweep_s if sweep_s else None, "1/s")
    elif workload == "iqae-table2":
        calls = [int(row["oracle_calls"]) for r in ok for row in csv_rows(r.csv_text)]
        metrics["oracle_calls"] = (_median(calls), "count")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["fail_ratio"] = (failed / len(results), "ratio")
    return metrics


def per_layer(passes: list[Pass]) -> dict:
    """Medians over traced passes of each pass's per-layer metrics; counts
    take the lower median, so they stay whole numbers."""
    traced = [p for p in passes if p.traced]
    layers = [layer_metrics(p.spans) for p in traced]
    units = {name: unit for pass_metrics in layers for name, (_, unit) in pass_metrics.items()}
    metrics = {}
    for name, unit in sorted(units.items()):
        values = [m[name][0] for m in layers if m.get(name, (None,))[0] is not None]
        exact = values and all(isinstance(v, int) for v in values)
        metrics[name] = (median_low(values) if exact else _median(values), unit)
    untraced = median(p.wall for p in passes if not p.traced)
    metrics["trace.overhead_s"] = (median(p.wall for p in traced) - untraced, "s")
    return metrics


def result_line(report: dict, trace: bool, attempted: int, failed: int) -> str:
    """The last output line: the metrics BENCHMARK.json lists for this mode.

    A listed per-layer metric the workload never reached reads 0 (no calls,
    no time)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] in report:
            value, unit = report[m["name"]]
        elif trace:
            value, unit = 0, m["unit"]
        else:
            raise KeyError(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    })


def write_spans(path: Path, passes: list[Pass]) -> None:
    """Every span of the traced passes, one JSON object per line."""
    with path.open("w", encoding="utf-8") as fh:
        for number, p in enumerate(passes):
            index = {id(s): i for i, s in enumerate(p.spans or ())}
            for i, s in enumerate(p.spans or ()):
                record = {
                    "pass": number, "span": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)], "ok": s.ok,
                }
                record.update({k: s.attrs[k] for k in ("kind", "width") if k in s.attrs})
                fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qautocall" / "__init__.py").is_file():
        print(f"qautocall sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(time.perf_counter() - SCRIPT_START)
        return 0

    ops = setup(args.workload, args.seed, WORK / args.workload)
    setups = [time.perf_counter() - SCRIPT_START]
    setups += [probe_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    passes = run_passes(ops, args.seconds, bool(args.trace))
    report = end_to_end(args.workload, ops, passes, setups)
    if args.trace:
        report.update(per_layer(passes))
        write_spans(WORK / f"{args.workload}-spans.jsonl", passes)
    errors = Counter(r.error for p in passes for r in p.results if r.error is not None)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(errors.values())

    import numpy

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed")
    print(f"# nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, BLAS/OpenMP threads 1, sweep --threads 1")
    for error, n in sorted(errors.items()):
        print(f"# error {error}: {n}")
    for name, (value, unit) in report.items():
        print(f"{name} {'null' if value is None else value} {unit}")
    print(result_line(report, bool(args.trace), attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
