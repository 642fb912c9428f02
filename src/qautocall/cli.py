"""Command-line front end: flat INI-style configs in, CSV rows out.

Subcommands: ``price`` (one method, one parameter point), ``sweep`` (grid over
precision/discretization), ``resources`` (T-depth report), ``validate``
(config check only). Exit codes: 0 success, 1 validation (a config error,
a config file that cannot be read or an output file that cannot be written,
or a contract whose payoffs cannot be mapped to amplitudes), 2 capacity (the
grid's 2**k points, the circuit's state support bound or the states a closed
form keeps in one step do not fit in physical memory), 3 numerical, 4
internal (a malformed op or unnormalized amplitudes: a fault in the package).

Identical config and seed produce byte-identical CSV; the wall_ms column is
left empty unless --timing is passed, since timings are inherently
non-reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import difflib
import io
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .circuit import MAX_FRAC_BITS, build_pricing_circuit, fit_format, post_process
from .contracts import AutocallableContract, BinaryOption
from .errors import (
    CapacityError, ConfigError, MappingError, NumericalError, PreconditionError, StructuralError,
)
from .estimation import IqaeConfig, exact_amplitude, iqae_estimate
from .loading import GaussianGridSpec
from .oracles import (
    closed_form_discretized,
    closed_form_quantized,
    mc_price,
    mc_price_discretized,
)
from .resources import QSP_BASELINE_T_DEPTH, ResourceParams, d_total

METHODS = ("quantum-exact", "quantum-iqae", "mc", "mc-disc", "cf-disc", "cf-quant")

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

_SECTION_KEYS = {
    "contract": {
        "notional", "dt", "steps", "sigma", "mu", "rate", "barrier", "strike", "binaries",
    },
    "grid": {"k", "s_min"},
    "fixedpoint": {"p"},
    "estimation": {"method", "epsilon", "alpha", "shots", "paths", "seed"},
    "sweep": {"p_values", "k_values", "methods"},
    "resources": {
        "steps", "assets", "epsilon", "layers", "gaussian_qubits", "binaries",
        "m_values", "sigma_max", "mu", "dt", "notional", "strike", "f_max",
    },
}


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
    sweep_p: list[int] = field(default_factory=list)
    sweep_k: list[int] = field(default_factory=list)
    sweep_methods: list[str] = field(default_factory=list)
    resources: dict = field(default_factory=dict)


class _Reader:
    """Pulls typed values out of one section, accumulating problems."""

    def __init__(self, parser, section, problems):
        self.section = section
        self.raw = dict(parser[section]) if parser.has_section(section) else {}
        self.problems = problems
        known = _SECTION_KEYS.get(section, set())
        for key in self.raw:
            if key not in known:
                hint = difflib.get_close_matches(key, known, n=1)
                suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
                problems.append(f"unknown key '{section}.{key}'{suffix}")

    def get(self, key, convert, default=None, required=False, check=None, describe=""):
        if key not in self.raw:
            if required:
                self.problems.append(f"missing required key '{self.section}.{key}'")
            return default
        text = self.raw[key]
        try:
            value = convert(text)
        except (ValueError, TypeError):
            self.problems.append(f"invalid value for '{self.section}.{key}': {text!r}")
            return default
        if check is not None and not check(value):
            self.problems.append(f"'{self.section}.{key}' {describe}, got {text!r}")
            return default
        return value


def _parse_binaries(text: str) -> tuple[BinaryOption, ...]:
    text = text.strip()
    if not text:
        return ()
    legs = []
    for part in text.split(","):
        step, strike, payout = part.strip().split(":")
        legs.append(BinaryOption(int(step), float(strike), float(payout)))
    return tuple(legs)


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.replace(",", " ").split()]


def _frac_bits_ok(p: int) -> bool:
    return 0 <= p <= MAX_FRAC_BITS


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    problems: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax error: {exc}"]) from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            hint = difflib.get_close_matches(section, _SECTION_KEYS, n=1)
            suffix = f" (did you mean '[{hint[0]}]'?)" if hint else ""
            problems.append(f"unknown section '[{section}]'{suffix}")

    # [contract] is optional (resources never reads it); when present, it is complete
    con = _Reader(parser, "contract", problems)
    has_contract = parser.has_section("contract")
    notional = con.get("notional", float, required=has_contract, check=lambda v: v > 0,
                       describe="must be positive")
    dt = con.get("dt", float, required=has_contract, check=lambda v: v > 0,
                 describe="must be positive")
    steps = con.get("steps", int, required=has_contract, check=lambda v: v >= 1,
                    describe="must be >= 1")
    sigma = con.get("sigma", float, required=has_contract, check=lambda v: v >= 0,
                    describe="must be non-negative")
    mu = con.get("mu", float, required=has_contract)
    rate = con.get("rate", float, required=has_contract)
    barrier = con.get("barrier", float, required=has_contract, check=lambda v: v > 0,
                      describe="must be positive")
    strike = con.get("strike", float, required=has_contract, check=lambda v: v > 0,
                     describe="must be positive")
    binaries = con.get("binaries", _parse_binaries, default=())

    gr = _Reader(parser, "grid", problems)
    k = gr.get("k", int, check=lambda v: v >= 1, describe="must be >= 1")
    s_min = gr.get("s_min", float, check=lambda v: v > 0, describe="must be positive")

    fx = _Reader(parser, "fixedpoint", problems)
    frac_bits = fx.get("p", int, check=_frac_bits_ok,
                       describe=f"must be in [0, {MAX_FRAC_BITS}]")

    est = _Reader(parser, "estimation", problems)
    method = est.get("method", str, check=lambda v: v in METHODS,
                     describe=f"must be one of {METHODS}")
    epsilon = est.get("epsilon", float, default=1e-3, check=lambda v: 0 < v < 0.5,
                      describe="must be in (0, 0.5)")
    alpha = est.get("alpha", float, default=2e-3, check=lambda v: 0 < v < 1,
                    describe="must be in (0, 1)")
    shots = est.get("shots", int, default=100, check=lambda v: v >= 1, describe="must be >= 1")
    paths = est.get("paths", int, default=100_000, check=lambda v: v >= 1,
                    describe="must be >= 1")
    seed = est.get("seed", int, default=0, check=lambda v: v >= 0, describe="must be >= 0")

    sw = _Reader(parser, "sweep", problems)
    sweep_p = sw.get("p_values", _parse_int_list, default=[],
                     check=lambda ps: all(map(_frac_bits_ok, ps)),
                     describe=f"must all be in [0, {MAX_FRAC_BITS}]")
    sweep_k = sw.get("k_values", _parse_int_list, default=[],
                     check=lambda ks: all(k >= 1 for k in ks), describe="must all be >= 1")
    sweep_methods = sw.get(
        "methods", lambda t: [m.strip() for m in t.split(",")], default=[]
    )
    for m in sweep_methods:
        if m not in METHODS:
            problems.append(f"unknown sweep method {m!r}; options: {', '.join(METHODS)}")

    res = _Reader(parser, "resources", problems)
    resources = {}
    if parser.has_section("resources"):
        resources = {
            "steps": res.get("steps", int, default=20, check=lambda v: v >= 1,
                             describe="must be >= 1"),
            "assets": res.get("assets", int, default=3, check=lambda v: v >= 1,
                              describe="must be >= 1"),
            "epsilon": res.get("epsilon", float, default=2e-3, check=lambda v: 0 < v < 1,
                               describe="must be in (0, 1)"),
            "layers": res.get("layers", int, default=0, check=lambda v: v >= 0,
                              describe="must be >= 0"),
            "gaussian_qubits": res.get("gaussian_qubits", int, default=2,
                                       check=lambda v: v >= 1, describe="must be >= 1"),
            "binaries": res.get("binaries", int, default=2, check=lambda v: v >= 0,
                                describe="must be >= 0"),
            "m_values": res.get("m_values", _parse_int_list, default=[8],
                                check=lambda ms: all(m >= 1 for m in ms),
                                describe="must all be >= 1"),
            "sigma_max": res.get("sigma_max", float, default=0.2382, check=lambda v: v >= 0,
                                 describe="must be non-negative"),
            "mu": res.get("mu", float, default=0.1274),
            "dt": res.get("dt", float, default=1.0, check=lambda v: v > 0,
                          describe="must be positive"),
            "notional": res.get("notional", float, default=18.0, check=lambda v: v > 0,
                                describe="must be positive"),
            "strike": res.get("strike", float, default=1.0, check=lambda v: v > 0,
                              describe="must be positive"),
            "f_max": res.get("f_max", float, default=5.0 * math.exp(-0.08),
                             check=lambda v: v >= 0, describe="must be non-negative"),
        }
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

    contract = None
    if has_contract and not problems:
        try:
            contract = AutocallableContract(
                notional=notional, dt=dt, steps=steps, mu=mu, sigma=sigma,
                rate=rate, barrier=barrier, strike=strike, binaries=binaries,
            )
        except ValueError as exc:
            problems.append(f"contract: {exc}")

    grid = None
    if k is not None and s_min is not None and not problems:
        grid = GaussianGridSpec(k=k, s_min=s_min)

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        contract=contract, grid=grid, frac_bits=frac_bits, method=method,
        epsilon=epsilon, alpha=alpha, shots=shots, paths=paths, seed=seed,
        sweep_p=sweep_p, sweep_k=sweep_k, sweep_methods=sweep_methods, resources=resources,
    )


def _require(config: RunConfig, method: str, k: int | None, p: int | None):
    problems = []
    if config.contract is None:
        problems.append(f"method {method} needs a [contract] section")
    if method in ("mc-disc", "cf-disc", "cf-quant", "quantum-exact", "quantum-iqae"):
        # s_min always comes from [grid], even when the sweep supplies k
        if config.grid is None:
            problems.append(f"method {method} needs a [grid] section with k and s_min")
    if method in ("cf-quant", "quantum-exact", "quantum-iqae"):
        if config.frac_bits is None and p is None:
            problems.append(f"method {method} needs fixedpoint.p")
    if problems:
        raise ConfigError(problems)


def _format(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _binaries_text(contract: AutocallableContract) -> str:
    return ";".join(f"{b.step}:{b.strike}:{b.payout}" for b in contract.binaries)


def price_row(
    config: RunConfig,
    method: str,
    k: int | None = None,
    p: int | None = None,
    timing: bool = False,
) -> dict:
    """Run one (method, k, p) point and return its CSV row values."""
    _require(config, method, k, p)
    contract = config.contract
    grid = GaussianGridSpec(k, config.grid.s_min) if k is not None else config.grid
    p = p if p is not None else config.frac_bits
    started = time.perf_counter()

    row = {c: "" for c in PRICE_COLUMNS}
    row.update(
        method=method, seed=config.seed,
        notional=contract.notional, dt=contract.dt, steps=contract.steps,
        mu=contract.mu, sigma=contract.sigma, rate=contract.rate,
        barrier=contract.barrier, strike=contract.strike,
        binaries=_binaries_text(contract),
    )
    if grid is not None and method != "mc":
        row.update(k=grid.k, s_min=grid.s_min)

    if method in ("mc", "mc-disc"):
        if method == "mc":
            result = mc_price(contract, config.paths, config.seed)
        else:
            result = mc_price_discretized(contract, grid, config.paths, config.seed)
        row.update(value=result.mean, stderr=result.stderr,
                   ci_low=result.mean - 1.96 * result.stderr,
                   ci_high=result.mean + 1.96 * result.stderr,
                   paths_or_shots=result.paths)
    elif method == "cf-disc":
        row.update(value=closed_form_discretized(contract, grid))
    elif method == "cf-quant":
        fmt = fit_format(contract, grid, p)
        row.update(value=closed_form_quantized(contract, grid, fmt), p=p)
    elif method in ("quantum-exact", "quantum-iqae"):
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
        row.update(value=value, ci_low=ci_low, ci_high=ci_high, p=p)
    else:
        raise ConfigError([f"unknown method {method!r}"])

    if timing:
        row["wall_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    return row


def sweep_rows(config: RunConfig, threads: int = 1, timing: bool = False) -> list[dict]:
    """All sweep points, computed possibly in parallel, emitted in sorted order."""
    methods = config.sweep_methods or ([config.method] if config.method else [])
    if not methods:
        raise ConfigError(["sweep needs [sweep] methods or an [estimation] method"])
    ks = config.sweep_k or ([config.grid.k] if config.grid else [])
    ps = config.sweep_p or ([config.frac_bits] if config.frac_bits is not None else [])

    points = []
    for method in methods:
        if method == "mc":
            found = [(method, None, None)]
        elif method in ("mc-disc", "cf-disc"):
            found = [(method, k, None) for k in ks]
        else:
            found = [(method, k, p) for k in ks for p in ps]
        if not found:  # no k or no p: name what is missing
            _require(config, method, None, None)
        points.extend(found)

    def compute(point):
        method, k, p = point
        return price_row(config, method, k=k, p=p, timing=timing)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(compute, points))
    else:
        rows = [compute(pt) for pt in points]
    rows.sort(key=lambda r: (r["method"], r["k"] or -1, r["p"] or -1))
    return rows


def resource_rows(config: RunConfig) -> list[dict]:
    opts = dict(config.resources or {})
    if not opts:
        raise ConfigError(["resources needs a [resources] section"])
    m_values = opts.pop("m_values")
    rows = []
    for m in m_values:
        report = d_total(ResourceParams(accumulator_width=m, **opts))
        rows.append(emit_report(report))
    return rows


def emit_report(report) -> dict:
    """One resource report as a CSV row dict in the stable column order."""
    p = report.params
    return {
        "steps": p.steps, "assets": p.assets, "epsilon": p.epsilon,
        "layers": p.layers, "gaussian_qubits": p.gaussian_qubits,
        "binaries": p.binaries, "m": p.accumulator_width,
        "w": report.w, "r_t_min": report.r_t_min, "R": report.scale,
        "n_iqae": report.n_iqae, "d_gaussian": report.d_gaussian,
        "d_arith": report.d_arith, "d_exp": report.d_exp,
        "d_amplitude_loading": report.d_amplitude_loading,
        "d_total": report.d_total, "qsp_baseline": QSP_BASELINE_T_DEPTH,
        "qsp_ratio": report.qsp_ratio,
    }


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
            columns = PRICE_COLUMNS
        elif args.command == "sweep":
            rows = sweep_rows(config, threads=args.threads, timing=args.timing)
            columns = PRICE_COLUMNS
        else:
            rows = resource_rows(config)
            columns = RESOURCE_COLUMNS
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
    write_csv(rows, columns, buf)
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
