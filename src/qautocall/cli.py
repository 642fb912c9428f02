"""Command-line front end: flat INI-style configs in, CSV rows out.

Subcommands: ``price`` (one method, one parameter point), ``sweep`` (grid over
precision/discretization), ``resources`` (T-depth report), ``validate``
(config check only). Exit codes: 0 success, 1 validation (a config error,
such as a non-finite number or a grid whose normal pdf is 0 at every point,
a config file that cannot be read or an output file that cannot be written,
or a contract whose payoffs cannot be mapped to amplitudes), 2 capacity (more
qubits than int64 indices hold, or the grid's 2**k points, the circuit's state
support bound, a closed form's states in one step or barrier entry per step,
or one Monte Carlo block's uniforms exceed physical memory), 3 numerical, 4
internal (a malformed op or unnormalized amplitudes: a fault in the package).

``_SCHEMA`` is the one place config keys are declared, with each key's
converter, default (or that its section needs it) and check: ``parse_config``
and its unknown-key hints read it. ``[resources]`` defaults are
``ResourceParams``' own; ``METHOD_INPUTS`` declares the inputs of each method.

A sweep's Monte Carlo points, mc and mc-disc at every k, are one task that
prices them all on one uniform draw per block (:func:`_mc_rows`); each gets
the value a ``price`` of that point alone gives.

Identical config and seed produce byte-identical CSV; the wall_ms column is
left empty unless --timing is passed, since timings are inherently
non-reproducible. The Monte Carlo rows of a sweep share their task's wall_ms.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, fields

from .circuit import MAX_FRAC_BITS, build_pricing_circuit, fit_format, post_process
from .contracts import AutocallableContract, BinaryOption
from .errors import (CapacityError, ConfigError, MappingError, NumericalError,
                     PreconditionError, StructuralError)
from .estimation import IqaeConfig, exact_amplitude, iqae_estimate
from .loading import GaussianGridSpec
# mc_price and mc_price_discretized, not called here: perfbench/spans.py wraps them
from .oracles import (closed_form_discretized, closed_form_quantized, mc_price,  # noqa: F401
                      mc_price_discretized, mc_prices)
from .resources import QSP_BASELINE_T_DEPTH, ResourceParams, d_total
from .simulator import MAX_QUBITS

#: the grid inputs each method reads: k (with [grid] s_min) and p
METHOD_INPUTS = {"quantum-exact": ("k", "p"), "quantum-iqae": ("k", "p"), "mc": (),
                 "mc-disc": ("k",), "cf-disc": ("k",), "cf-quant": ("k", "p")}
METHODS = tuple(METHOD_INPUTS)
MC_METHODS = ("mc", "mc-disc")

PRICE_COLUMNS = [
    "method", "k", "p", "value", "ci_low", "ci_high", "stderr",
    "paths_or_shots", "oracle_calls", "seed", "wall_ms",
    "notional", "dt", "steps", "mu", "sigma", "rate", "barrier", "strike",
    "binaries", "s_min", "epsilon", "alpha",
]

RESOURCE_COLUMNS = [
    "steps", "assets", "epsilon", "layers", "gaussian_qubits", "binaries", "m",
    "w", "r_t_min", "R", "n_iqae",
    "d_gaussian", "d_arith", "d_exp", "d_amplitude_loading", "d_total",
    "qsp_baseline", "qsp_ratio",
]


@dataclass
class RunConfig:
    contract: AutocallableContract | None  # None when the config has no [contract]
    grid: GaussianGridSpec | None
    frac_bits: int | None
    method: str | None
    epsilon: float
    alpha: float
    shots: int
    paths: int
    seed: int
    sweep_p: tuple[int, ...]
    sweep_k: tuple[int, ...]
    sweep_methods: tuple[str, ...]
    resources: dict  # empty when the config has no [resources]


def _parse_binaries(text: str) -> tuple[BinaryOption, ...]:
    text = text.strip()
    if not text:
        return ()
    legs = []
    for part in text.split(","):
        step, strike, payout = part.strip().split(":")
        strike, payout = float(strike), float(payout)
        if not (math.isfinite(strike) and math.isfinite(payout)):
            raise ValueError(f"binary {part.strip()!r} is not finite")
        legs.append(BinaryOption(int(step), strike, payout))
    return tuple(legs)


def _parse_list(text: str) -> tuple[str, ...]:
    """The items of ``text`` split at commas and whitespace: none when empty."""
    return tuple(text.replace(",", " ").split())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _parse_list(text))


_REQUIRED = object()  # the default of a key required when its section is present

# checks: (predicate, what a failed value is told), or no check
_ANY = (None, "")
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must be in (0, 1)")


def _ints(lo: int, hi: int = 2**63 - 1, each: bool = False):
    """The check of an int key (with ``each``, of every int of a list key) in
    [lo, hi]: int64 by default, and k <= MAX_QUBITS, so 2**k indices are int64."""
    bound = "2**63 - 1" if hi == 2**63 - 1 else hi
    if each:
        return lambda vs: all(lo <= v <= hi for v in vs), f"must all be in [{lo}, {bound}]"
    return lambda v: lo <= v <= hi, f"must be in [{lo}, {bound}]"


_PARAMS = {f.name: f.default for f in fields(ResourceParams)}
_PARAMS["m_values"] = (_PARAMS["accumulator_width"],)  # accumulator widths, one row each

#: section -> key -> (converter, default, check), in the order problems are reported
_SCHEMA = {
    "contract": {
        "notional": (float, _REQUIRED, _POSITIVE),
        "dt": (float, _REQUIRED, _POSITIVE),
        "steps": (int, _REQUIRED, _ints(1)),
        "sigma": (float, _REQUIRED, _NON_NEGATIVE),
        "mu": (float, _REQUIRED, _ANY),
        "rate": (float, _REQUIRED, _ANY),
        "barrier": (float, _REQUIRED, _POSITIVE),
        "strike": (float, _REQUIRED, _POSITIVE),
        "binaries": (_parse_binaries, (), _ANY),
    },
    "grid": {"k": (int, None, _ints(1, MAX_QUBITS)), "s_min": (float, None, _POSITIVE)},
    "fixedpoint": {"p": (int, None, _ints(0, MAX_FRAC_BITS))},
    "estimation": {
        "method": (str, None, (lambda v: v in METHODS, f"must be one of {METHODS}")),
        "epsilon": (float, 1e-3, (lambda v: 0 < v < 0.5, "must be in (0, 0.5)")),
        "alpha": (float, 2e-3, _OPEN_UNIT),
        "shots": (int, 100, _ints(1)),
        "paths": (int, 100_000, _ints(1)),
        "seed": (int, 0, _ints(0)),
    },
    "sweep": {
        "p_values": (_parse_int_list, (), _ints(0, MAX_FRAC_BITS, each=True)),
        "k_values": (_parse_int_list, (), _ints(1, MAX_QUBITS, each=True)),
        "methods": (_parse_list, (), _ANY),
    },
    "resources": {
        key: (convert, _PARAMS[key], check)
        for key, convert, check in [
            ("steps", int, _ints(1)),
            ("assets", int, _ints(1)),
            ("epsilon", float, _OPEN_UNIT),
            ("layers", int, _ints(0)),
            ("gaussian_qubits", int, _ints(1)),
            ("binaries", int, _ints(0)),
            ("m_values", _parse_int_list, _ints(1, each=True)),
            ("sigma_max", float, _NON_NEGATIVE),
            ("mu", float, _ANY),
            ("dt", float, _POSITIVE),
            ("notional", float, _POSITIVE),
            ("strike", float, _POSITIVE),
            ("f_max", float, _NON_NEGATIVE),
        ]
    },
}


def _hint(name: str, known, shape: str) -> str:
    import difflib  # imported here, not at start-up: only a hint needs it
    match = difflib.get_close_matches(name, known, n=1)
    return f" (did you mean '{shape.format(match[0])}'?)" if match else ""


def _read_section(parser, section: str, problems: list[str]) -> dict:
    """Every key of one section: its value, or its default where the key is
    absent or its value is refused, each refusal added to ``problems``."""
    keys = _SCHEMA[section]
    present = parser.has_section(section)
    raw = dict(parser[section]) if present else {}
    for key in raw:
        if key not in keys:
            problems.append(f"unknown key '{section}.{key}'{_hint(key, keys, '{}')}")
    values = {}
    for key, (convert, default, (check, describe)) in keys.items():
        if default is _REQUIRED:
            default = None
            if present and key not in raw:
                problems.append(f"missing required key '{section}.{key}'")
        values[key] = default
        if key not in raw:
            continue
        text = raw[key]
        try:
            value = convert(text)
        except (ValueError, TypeError):
            problems.append(f"invalid value for '{section}.{key}': {text!r}")
            continue
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"'{section}.{key}' must be finite, got {text!r}")
        elif check is not None and not check(value):
            problems.append(f"'{section}.{key}' {describe}, got {text!r}")
        else:
            values[key] = value
    return values


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax error: {exc}"]) from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section '[{section}]'{_hint(section, _SCHEMA, '[{}]')}")

    read = {}
    for section in _SCHEMA:
        read[section] = _read_section(parser, section, problems)
        if section == "sweep":
            problems.extend(
                f"unknown sweep method {m!r}; options: {', '.join(METHODS)}"
                for m in read[section]["methods"] if m not in METHODS
            )

    resources = read["resources"] if parser.has_section("resources") else {}
    if resources:
        # The rescaling factor R(w) = f_max + (strike - r_t_min(w)) * notional
        # tends to f_max + strike * notional > 0 as w grows unless sigma_max = 0,
        # where it is constant; compared in logs because r_t_min can overflow.
        r = resources
        log_r_t_min = r["mu"] * r["dt"] * r["steps"]
        floor = r["strike"] + r["f_max"] / r["notional"]
        if r["sigma_max"] == 0 and log_r_t_min >= math.log(floor):
            problems.append(
                "'resources.sigma_max' = 0 with 'resources.mu', 'resources.dt' and "
                f"'resources.steps' fix the terminal return at exp({log_r_t_min:.6g}), not "
                f"below 'resources.strike' + 'resources.f_max' / 'resources.notional' = "
                f"{floor:.6g}, so the payoff rescaling factor is never positive"
            )

    # [contract] is optional (resources never reads it); when present, it is complete
    contract = None
    if parser.has_section("contract") and not problems:
        try:
            contract = AutocallableContract(**read["contract"])
        except ValueError as exc:
            problems.append(f"contract: {exc}")

    grid = None
    if None not in read["grid"].values() and not problems:
        grid = GaussianGridSpec(**read["grid"])

    if problems:
        raise ConfigError(problems)
    sweep = read["sweep"]
    return RunConfig(
        contract=contract, grid=grid, frac_bits=read["fixedpoint"]["p"], **read["estimation"],
        sweep_p=sweep["p_values"], sweep_k=sweep["k_values"], sweep_methods=sweep["methods"],
        resources=resources,
    )


def _require(config: RunConfig, method: str, p: int | None) -> tuple[str, ...]:
    """The inputs ``method`` reads; raises :class:`ConfigError` naming any the config lacks."""
    if method not in METHOD_INPUTS:
        raise ConfigError([f"unknown method {method!r}"])
    needs = METHOD_INPUTS[method]
    problems = []
    if config.contract is None:
        problems.append(f"method {method} needs a [contract] section")
    # s_min always comes from [grid], even when the sweep supplies k
    if "k" in needs and config.grid is None:
        problems.append(f"method {method} needs a [grid] section with k and s_min")
    if "p" in needs and config.frac_bits is None and p is None:
        problems.append(f"method {method} needs fixedpoint.p")
    if problems:
        raise ConfigError(problems)
    return needs


def _format(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _point_row(config: RunConfig, method: str, k: int | None, p: int | None):
    """One (method, k, p) point's row values before it is priced, its grid and its p."""
    needs = _require(config, method, p)
    contract = config.contract
    grid = GaussianGridSpec(k, config.grid.s_min) if k is not None else config.grid
    p = p if p is not None else config.frac_bits

    row = {c: "" for c in PRICE_COLUMNS}
    row.update(
        method=method, seed=config.seed,
        notional=contract.notional, dt=contract.dt, steps=contract.steps,
        mu=contract.mu, sigma=contract.sigma, rate=contract.rate,
        barrier=contract.barrier, strike=contract.strike,
        binaries=";".join(f"{b.step}:{b.strike}:{b.payout}" for b in contract.binaries),
    )
    if "k" in needs:
        row.update(k=grid.k, s_min=grid.s_min)
    if "p" in needs:
        row.update(p=p)
    return row, grid, p


def price_row(
    config: RunConfig,
    method: str,
    k: int | None = None,
    p: int | None = None,
    timing: bool = False,
) -> dict:
    """Run one (method, k, p) point and return its CSV row values."""
    if method in MC_METHODS:
        return _mc_rows(config, [(method, k, p)], timing)[0]
    started = time.perf_counter()
    row, grid, p = _point_row(config, method, k, p)
    contract = config.contract
    if method == "cf-disc":
        row.update(value=closed_form_discretized(contract, grid))
    elif method == "cf-quant":
        fmt = fit_format(contract, grid, p)
        row.update(value=closed_form_quantized(contract, grid, fmt))
    else:
        pc = build_pricing_circuit(contract, grid, fit_format(contract, grid, p))
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        if method == "quantum-exact":
            estimate = (a, a, a)
            row.update(oracle_calls=0)
        else:
            iqae = iqae_estimate(a, IqaeConfig(epsilon=config.epsilon, alpha=config.alpha,
                                               shots_per_round=config.shots, seed=config.seed))
            estimate = (iqae.a_hat, *iqae.ci)
            row.update(paths_or_shots=iqae.shots_total, oracle_calls=iqae.oracle_calls,
                       epsilon=config.epsilon, alpha=config.alpha)
        value, ci_low, ci_high = (post_process(x, pc.mapping) for x in estimate)
        row.update(value=value, ci_low=ci_low, ci_high=ci_high)

    if timing:
        row["wall_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    return row


def _mc_rows(config: RunConfig, points, timing: bool) -> list[dict]:
    """The rows of Monte Carlo points (mc, or mc-disc at a k), all priced by
    one :func:`~qautocall.oracles.mc_prices` call on one uniform draw per
    block; with ``timing``, each row's wall_ms is that whole call's."""
    started = time.perf_counter()
    rows, grids = [], []
    for method, k, p in points:
        row, grid, _ = _point_row(config, method, k, p)
        rows.append(row)
        grids.append(grid if method == "mc-disc" else None)
    results = mc_prices(config.contract, grids, config.paths, config.seed)
    wall_ms = round((time.perf_counter() - started) * 1e3, 3)
    for row, result in zip(rows, results):
        row.update(value=result.mean, stderr=result.stderr,
                   ci_low=result.mean - 1.96 * result.stderr,
                   ci_high=result.mean + 1.96 * result.stderr,
                   paths_or_shots=result.paths)
        if timing:
            row["wall_ms"] = wall_ms
    return rows


def sweep_rows(config: RunConfig, threads: int = 1, timing: bool = False) -> list[dict]:
    """All sweep points, computed possibly in parallel, emitted in sorted order;
    the Monte Carlo points are one task (:func:`_mc_rows`)."""
    methods = config.sweep_methods or ([config.method] if config.method else [])
    if not methods:
        raise ConfigError(["sweep needs [sweep] methods or an [estimation] method"])
    ks = config.sweep_k or ([config.grid.k] if config.grid else [])
    ps = config.sweep_p or ([config.frac_bits] if config.frac_bits is not None else [])

    points = []
    for method in methods:
        needs = METHOD_INPUTS[method]
        found = [(method, k, p) for k in (ks if "k" in needs else [None])
                 for p in (ps if "p" in needs else [None])]
        if not found:  # no k or no p: name what is missing
            _require(config, method, None)
        points.extend(found)
    mc = [pt for pt in points if pt[0] in MC_METHODS]
    tasks = ([mc] if mc else []) + [pt for pt in points if pt[0] not in MC_METHODS]

    def compute(task):  # the list of Monte Carlo points, or one other point
        if task is mc:
            return _mc_rows(config, mc, timing)
        return [price_row(config, *task, timing=timing)]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not at start-up: ~7 ms
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = [row for task in pool.map(compute, tasks) for row in task]
    else:
        rows = [row for task in tasks for row in compute(task)]
    rows.sort(key=lambda r: (r["method"], r["k"] or -1, r["p"] or -1))
    return rows


def resource_rows(config: RunConfig) -> list[dict]:
    opts = dict(config.resources)
    if not opts:
        raise ConfigError(["resources needs a [resources] section"])
    m_values = opts.pop("m_values")
    return [emit_report(d_total(ResourceParams(accumulator_width=m, **opts))) for m in m_values]


def emit_report(report) -> dict:
    """One resource report as a CSV row dict, its values in ``RESOURCE_COLUMNS`` order."""
    p = report.params
    return dict(zip(RESOURCE_COLUMNS, [
        p.steps, p.assets, p.epsilon, p.layers, p.gaussian_qubits, p.binaries,
        p.accumulator_width, report.w, report.r_t_min, report.scale, report.n_iqae,
        report.d_gaussian, report.d_arith, report.d_exp, report.d_amplitude_loading,
        report.d_total, QSP_BASELINE_T_DEPTH, report.qsp_ratio,
    ], strict=True))


def write_csv(rows: list[dict], columns: list[str], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format(row.get(c, "")) for c in columns])


def _load_config(path: str, seed_override: int | None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"]) from exc
    config = parse_config(text)
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError([f"'--seed' must be >= 0, got {seed_override}"])
        config.seed = seed_override
    return config


_parser: argparse.ArgumentParser | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qautocall",
        description="Price autocallable options on an exact quantum simulator "
        "and its classical reference models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("price", "sweep", "resources", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI-style run configuration")
        if name != "validate":
            p.add_argument("--out", default=None, help="output CSV path (default stdout)")
            p.add_argument("--seed", type=int, default=None, help="override estimation.seed")
        if name in ("price", "sweep"):
            p.add_argument("--timing", action="store_true",
                           help="fill the wall_ms column (breaks byte-reproducibility)")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    # built on the first call, not at import, and reused by every later call:
    # parsing leaves the parser unchanged
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)

    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError([f"'--threads' must be >= 1, got {args.threads}"])
        config = _load_config(args.config, getattr(args, "seed", None))
        if args.command == "validate":
            print("OK")
            return 0
        if args.command == "price":
            if config.method is None:
                raise ConfigError(["price needs estimation.method"])
            rows = [price_row(config, config.method, timing=args.timing)]
        elif args.command == "sweep":
            rows = sweep_rows(config, threads=args.threads, timing=args.timing)
        else:
            rows = resource_rows(config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except MappingError as exc:
        print(f"mapping error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, PreconditionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    buf = io.StringIO()
    write_csv(rows, RESOURCE_COLUMNS if args.command == "resources" else PRICE_COLUMNS, buf)
    if not args.out:
        sys.stdout.write(buf.getvalue())
        return 0
    try:  # rendered whole first: an --out that cannot be opened is left as it was
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        print(f"config error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
