"""Full pricing circuit for a single-asset autocallable.

Pipeline: Gaussian loads per timestep and the partial-exponential reference
state are prepared up front; each timestep then accumulates a quantized
log-return increment, flags a barrier crossing, and flags/pays any binary leg
due at that step; finally the knock-in put is valued through the integration
comparator and every remaining branch gets the zero-payoff rotation.

The quantized semantics (increment codes, thresholds, the payoff-to-amplitude
mapping) live in :class:`QuantizedModel`, which the classical quantized oracle
shares verbatim, so circuit and oracle can only disagree through the gate
algebra itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import AutocallableContract, FixedPointFormat, int_bits_for
from .errors import CapacityError, ConfigError, MappingError, physical_memory
from .loading import (
    GaussianGridSpec,
    gaussian_amplitudes,
    integration_amplitude,
    partial_exponential_prep_ops,
)
from .simulator import (
    MAX_QUBITS,
    Add,
    Condition,
    PrimitiveOp,
    QubitRegister,
    Ry,
    X,
    injection_ops,
)


def log_return_increment(
    g: int, contract: AutocallableContract, grid: GaussianGridSpec, fmt: FixedPointFormat
) -> int:
    """Quantized per-step log-return for grid index ``g``; every step shares it."""
    if not 0 <= g < 2**grid.k:
        raise ValueError(f"grid index {g} outside [0, {2 ** grid.k})")
    value = contract.mu * contract.dt + contract.sigma * (
        g * grid.ds - grid.s_min
    ) * math.sqrt(contract.dt)
    code = fmt.quantize(value)
    if not fmt.covers(code):
        needed = int_bits_for([code], fmt.frac_bits)
        raise ValueError(
            f"increment code {code} overflows the format; int_bits >= {needed} required"
        )
    return code


@dataclass(frozen=True)
class AmplitudeMapping:
    """Affine map between currency payoffs and the estimated probability.

    ``p_min`` maps to amplitude-squared 0 and ``p_min + scale`` to 1; the
    zero payoff sits at ``zero_level``. ``scale`` is the factor that converts
    estimation error in probability into payoff error.
    """

    p_min: float
    scale: float
    f_max: float
    r_t_min: float
    zero_level: float

    def to_payoff(self, a_hat: float) -> float:
        return a_hat * self.scale + self.p_min

    def to_amplitude_sq(self, payoff: float) -> float:
        return (payoff - self.p_min) / self.scale


def post_process(a_hat: float, mapping: AmplitudeMapping) -> float:
    """Convert a good-state probability estimate back to currency."""
    return mapping.to_payoff(a_hat)


class QuantizedModel:
    """Everything the circuit and the quantized oracle must agree on.

    All comparisons are strict against pre-quantized thresholds (ties are
    false) and all encodings use round-half-even quantization.
    """

    def __init__(
        self,
        contract: AutocallableContract,
        grid: GaussianGridSpec,
        fmt: FixedPointFormat,
    ):
        self.contract = contract
        self.grid = grid
        self.fmt = fmt
        T = contract.steps

        if fmt.width > MAX_WIDTH:
            raise ValueError(f"format is {fmt.width} bits wide, more than {MAX_WIDTH}")
        lo, hi = _end_codes(contract, grid, fmt)
        envelope = [0, lo, hi, T * lo, T * hi]
        if not (fmt.covers(min(envelope)) and fmt.covers(max(envelope))):
            needed = int_bits_for(envelope, fmt.frac_bits)
            raise ValueError(
                f"accumulated log-returns span codes [{min(envelope)}, {max(envelope)}] "
                f"which overflow the format; int_bits >= {needed} required"
            )
        # every code lies in [lo, hi], so the format covers each; a grid point
        # -s_min + ds * g equals g * ds - s_min bit for bit, so each value is
        # the float log_return_increment quantizes
        value = contract.mu * contract.dt + contract.sigma * grid.points() * math.sqrt(contract.dt)
        self.inc_codes = np.rint(value * 2**fmt.frac_bits).astype(np.int64)

        self.barrier_code = fmt.quantize(math.log(contract.barrier))
        self.strike_codes = tuple(
            fmt.quantize(math.log(b.strike)) for b in contract.binaries
        )
        self.put_strike_code = fmt.quantize(math.log(contract.strike))
        self.l_min_code = T * lo

        self.rate_step = 2.0**-fmt.frac_bits  # exponential rate: one code step
        # A put-active path ends at v in [l_min_code, K_code - 1]. The
        # comparator input is x = v - l_min_code - 1, so the worst path maps
        # to amplitude exactly 0 and the loaded value is the quantized return
        # itself (no half-step bias from the inclusive comparator).
        self.put_reachable = self.put_strike_code > self.l_min_code
        self.put_x1 = self.put_strike_code - 2 - self.l_min_code
        self.needs_comparator = self.put_reachable and self.put_x1 >= 0
        self.exp_width = (
            max(1, self.put_x1.bit_length()) if self.needs_comparator else 0
        )

        self.mapping = self._derive_mapping()
        self.binary_levels = tuple(
            self.mapping.to_amplitude_sq(contract.discounted_payout(i))
            for i in range(len(contract.binaries))
        )
        for i, level in enumerate(self.binary_levels):
            if not 0.0 <= level <= 1.0:
                raise MappingError(f"binary {i} maps to amplitude^2 {level} outside [0, 1]")
        self.put_scale_sq = self._put_scale_sq()
        if not 0.0 <= self.put_scale_sq <= 1.0:
            raise MappingError(
                f"put scale maps to amplitude^2 {self.put_scale_sq} outside [0, 1]"
            )

    def _derive_mapping(self) -> AmplitudeMapping:
        c = self.contract
        r_t_min = math.exp(self.fmt.decode(self.l_min_code))
        discount_T = math.exp(-c.rate * c.maturity)
        f_max = max(
            (c.discounted_payout(i) for i in range(len(c.binaries))), default=0.0
        )
        # The put leg is worth (r_T - K) V at maturity, so its discounted floor
        # is (r_t_min - K) V e^{-rT}; clamped at zero when the quantized grid
        # cannot reach below the strike (the put then never pays).
        p_min = min(0.0, (r_t_min - c.strike) * c.notional * discount_T)
        scale = f_max - p_min
        if scale <= 0.0:
            raise MappingError(
                "degenerate contract: no binary payout and the put is unreachable, "
                "every payoff is zero"
            )
        return AmplitudeMapping(
            p_min=p_min,
            scale=scale,
            f_max=f_max,
            r_t_min=r_t_min,
            zero_level=-p_min / scale,
        )

    def _put_scale_sq(self) -> float:
        if not self.needs_comparator:
            return 0.0
        c = self.contract
        r_top = math.exp(self.fmt.decode(self.put_strike_code - 1))
        discount_T = math.exp(-c.rate * c.maturity)
        return (
            discount_T * c.notional * (r_top - self.mapping.r_t_min) / self.mapping.scale
        )

    def put_level(self, terminal_code: int) -> float:
        """Amplitude^2 loaded for a put-active path ending at this code."""
        if not self.needs_comparator:
            return 0.0
        x = terminal_code - self.l_min_code - 1
        amp = integration_amplitude(self.rate_step, x, self.put_x1)
        return amp * amp * self.put_scale_sq


#: largest fractional width: a sign bit and one integer bit still fit int64
MAX_FRAC_BITS = 62
#: widest accumulator format: the closed forms sum its codes in int64
MAX_WIDTH = 64


def _end_codes(
    contract: AutocallableContract, grid: GaussianGridSpec, fmt: FixedPointFormat
) -> tuple[int, int]:
    """Smallest and largest per-step increment code, at grid indices 0 and
    2**k - 1: each float op of the increment is monotone in g, and sigma >= 0.
    Raises ValueError if one overflows ``fmt``."""
    return tuple(log_return_increment(g, contract, grid, fmt) for g in (0, 2**grid.k - 1))


def _fit(
    contract: AutocallableContract, grid: GaussianGridSpec, frac_bits: int
) -> FixedPointFormat | None:
    """Smallest signed format whose accumulator covers every cumulative code,
    or None when it is wider than :data:`MAX_WIDTH` bits."""
    try:
        lo, hi = _end_codes(
            contract, grid, FixedPointFormat(MAX_WIDTH - 1 - frac_bits, frac_bits)
        )
    except ValueError:  # one step's code alone overflows
        return None
    T = contract.steps
    fmt = FixedPointFormat(int_bits_for([0, lo, hi, T * lo, T * hi], frac_bits), frac_bits)
    return fmt if fmt.width <= MAX_WIDTH else None


def fit_format(
    contract: AutocallableContract, grid: GaussianGridSpec, frac_bits: int
) -> FixedPointFormat:
    """Smallest signed format whose accumulator covers every cumulative code.

    Raises :class:`ConfigError`, naming the largest usable ``frac_bits``, when
    that format is wider than :data:`MAX_WIDTH` bits.
    """
    fmt = _fit(contract, grid, frac_bits)
    if fmt is None:
        usable = next(
            (p for p in range(frac_bits - 1, -1, -1) if _fit(contract, grid, p) is not None),
            None,
        )
        raise ConfigError([
            f"p = {frac_bits} is too large for this contract: its accumulated "
            f"log-returns overflow {MAX_WIDTH} bits; "
            + (f"the largest usable p is {usable}" if usable is not None else "no p is usable")
        ])
    return fmt


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit assignment for one pricing circuit."""

    gaussians: tuple[QubitRegister, ...]
    accumulator: QubitRegister
    exponential: QubitRegister | None
    barrier_flags: QubitRegister
    binary_flags: QubitRegister | None
    payoff_target: int
    scale_indicator: int
    put_flag: int | None
    num_qubits: int

    def describe(self) -> str:
        parts = [
            f"gaussians: {len(self.gaussians)} x {self.gaussians[0].width}",
            f"accumulator: {self.accumulator.width}",
            f"exponential: {self.exponential.width if self.exponential else 0}",
            f"barrier flags: {self.barrier_flags.width}",
            f"binary flags: {self.binary_flags.width if self.binary_flags else 0}",
            f"payoff target: 1",
            f"scale indicator: 1",
            f"put flag: {0 if self.put_flag is None else 1}",
            f"total: {self.num_qubits}",
        ]
        return ", ".join(parts)


def plan_layout(model: QuantizedModel) -> RegisterLayout:
    T = model.contract.steps
    k = model.grid.k
    j = len(model.contract.binaries)
    cursor = 0

    def take(width: int) -> QubitRegister:
        nonlocal cursor
        reg = QubitRegister(cursor, width)
        cursor += width
        return reg

    gaussians = tuple(take(k) for _ in range(T))
    accumulator = take(model.fmt.width)
    exponential = take(model.exp_width) if model.needs_comparator else None
    barrier_flags = take(T)
    binary_flags = take(j) if j else None
    payoff_target = cursor
    cursor += 1
    scale_indicator = cursor
    cursor += 1
    put_flag = None
    if model.put_reachable:
        put_flag = cursor
        cursor += 1
    return RegisterLayout(
        gaussians=gaussians,
        accumulator=accumulator,
        exponential=exponential,
        barrier_flags=barrier_flags,
        binary_flags=binary_flags,
        payoff_target=payoff_target,
        scale_indicator=scale_indicator,
        put_flag=put_flag,
        num_qubits=cursor,
    )


# -- per-stage circuit builders (shared by tests and the assembler) ----------


def accumulate_op(model: QuantizedModel, layout: RegisterLayout, t: int) -> Add:
    """acc += increment(g_t), in place, mod 2**m."""
    codes = model.inc_codes
    return Add(
        layout.accumulator.qubits,
        layout.gaussians[t - 1].qubits,
        lambda g: codes[g],
        name=f"accumulate[{t}]",
    )


def barrier_flag_op(model: QuantizedModel, layout: RegisterLayout, t: int) -> Add:
    """c_t ^= (l_t < quantize(ln b)), strict."""
    fmt, code = model.fmt, model.barrier_code
    return Add(
        (layout.barrier_flags.qubit(t - 1),),
        layout.accumulator.qubits,
        lambda acc: (fmt.to_signed(acc) < code).astype(np.int64),
        name=f"barrier[{t}]",
    )


def binary_flag_op(model: QuantizedModel, layout: RegisterLayout, i: int) -> Add:
    """b_i ^= (l > quantize(ln k_i)) and no earlier binary fired."""
    fmt, code = model.fmt, model.strike_codes[i]
    m = fmt.width

    def fires(v):  # v: accumulator, then the earlier binary flags
        return ((fmt.to_signed(v & (2**m - 1)) > code) & ((v >> m) == 0)).astype(np.int64)

    source = layout.accumulator.qubits + tuple(layout.binary_flags.qubit(h) for h in range(i))
    return Add((layout.binary_flags.qubit(i),), source, fires, name=f"binary[{i}]")


def constant_payoff_ops(
    model: QuantizedModel, layout: RegisterLayout, i: int
) -> list[PrimitiveOp]:
    """Controlled on b_i: rotate the target to sqrt(level) and set the scale."""
    level = model.binary_levels[i]
    control = ((layout.binary_flags.qubit(i), 1),)
    return [
        Ry(layout.payoff_target, 2.0 * math.asin(math.sqrt(level)), control),
        X(layout.scale_indicator, control),
    ]


def put_flag_op(model: QuantizedModel, layout: RegisterLayout) -> Add:
    """flag ^= (no binary fired) and (barrier crossed) and (l_T < quantize(ln K))."""
    fmt, code = model.fmt, model.put_strike_code
    m = fmt.width
    T = model.contract.steps

    def active(v):  # v: accumulator, then the barrier flags, then the binary flags
        below = fmt.to_signed(v & (2**m - 1)) < code
        crossed = ((v >> m) & (2**T - 1)) != 0
        return (below & crossed & ((v >> (m + T)) == 0)).astype(np.int64)

    source = (
        layout.accumulator.qubits
        + layout.barrier_flags.qubits
        + (layout.binary_flags.qubits if layout.binary_flags else ())
    )
    return Add((layout.put_flag,), source, active, name="put_flag")


def exponential_prep_ops(model: QuantizedModel, layout: RegisterLayout) -> list[PrimitiveOp]:
    """The exponential over r in [0, x1], loaded as r' = x1 - r at the rate -a
    (the same weights), so that one amplification round loads it."""
    return partial_exponential_prep_ops(layout.exponential, -model.rate_step, model.put_x1)


def put_comparator_op(model: QuantizedModel, layout: RegisterLayout) -> Add:
    """Controlled integration comparator: target ^= flag and (r <= l_T - l_min - 1),
    tested on the reflection r' = x1 - r the exponential register holds
    (:func:`exponential_prep_ops`) as r' >= x1 - (l_T - l_min - 1)."""
    fmt, l_min, x1 = model.fmt, model.l_min_code, model.put_x1
    n = model.exp_width
    m = fmt.width

    def below(v):  # v: exponential register, then the accumulator, then the put flag
        reflected = v & (2**n - 1)
        acc = fmt.to_signed((v >> n) & (2**m - 1))
        return (((v >> (n + m)) == 1) & (reflected >= x1 - (acc - l_min - 1))).astype(np.int64)

    source = layout.exponential.qubits + layout.accumulator.qubits + (layout.put_flag,)
    return Add((layout.payoff_target,), source, below, name="put_compare")


def put_scale_op(model: QuantizedModel, layout: RegisterLayout) -> Ry:
    angle = 2.0 * math.asin(math.sqrt(model.put_scale_sq))
    return Ry(layout.scale_indicator, angle, ((layout.put_flag, 1),))


def zero_payoff_ops(model: QuantizedModel, layout: RegisterLayout) -> list[PrimitiveOp]:
    """On the remaining branch (no binary, put inactive) load the zero-payoff level."""
    controls = tuple((q, 0) for q in (layout.binary_flags.qubits if layout.binary_flags else ()))
    if layout.put_flag is not None:
        controls += ((layout.put_flag, 0),)
    angle = 2.0 * math.asin(math.sqrt(model.mapping.zero_level))
    return [
        Ry(layout.payoff_target, angle, controls),
        X(layout.scale_indicator, controls),
    ]


@dataclass
class PricingCircuit:
    """Assembled circuit plus everything needed to run and interpret it."""

    ops: list[PrimitiveOp]
    layout: RegisterLayout
    mapping: AmplitudeMapping
    good: Condition
    model: QuantizedModel


#: peak bytes per stored entry, temporaries included: traced with tracemalloc
#: op by op along A and a Grover step, Table-2 at (p, k) = (6, 3) and (4, 4)
#: (the latter at its 2**19 bound) peaked 109.4 bytes per entry in ``Ry``,
#: 72.0 in ``Add``
BYTES_PER_ENTRY = 144


def _check_capacity(layout: RegisterLayout) -> None:
    """Raise :class:`CapacityError` unless the state fits in physical memory.
    Its support stays within ``2**(kT + w + 2)``: only the Gaussian and
    exponential registers, payoff target and scale qubit are in superposition,
    and every kernel's arrays follow the support. Runs apply only A; the bound
    also holds along the Grover iterate, which is where the tests check it
    (:func:`~.estimation.build_grover`).
    """
    if layout.num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"pricing circuit needs {layout.num_qubits} qubits, more than the "
            f"{MAX_QUBITS} that int64 basis indices hold ({layout.describe()}); reduce k or p"
        )
    w = layout.exponential.width if layout.exponential else 0
    bits = len(layout.gaussians) * layout.gaussians[0].width + w + 2
    memory = physical_memory()
    if 2**bits * BYTES_PER_ENTRY > memory:
        raise CapacityError(
            f"pricing circuit stores up to 2**{bits} = {2**bits} entries (its state "
            f"support bound), {BYTES_PER_ENTRY} bytes each, more than the {memory} "
            f"bytes of physical memory ({layout.describe()}); reduce k or p"
        )


def build_pricing_circuit(
    contract: AutocallableContract,
    grid: GaussianGridSpec,
    fmt: FixedPointFormat,
) -> PricingCircuit:
    """Assemble the full pricing circuit; see the module docstring for the
    pipeline. The good state is the conjunction (target=1 and scale=1).
    Raises :class:`CapacityError`, before any op is built, when the
    circuit's state cannot fit (:func:`_check_capacity`)."""
    model = QuantizedModel(contract, grid, fmt)
    layout = plan_layout(model)
    _check_capacity(layout)

    gauss = gaussian_amplitudes(grid)
    ops: list[PrimitiveOp] = []
    for reg in layout.gaussians:
        ops.extend(injection_ops(reg, gauss))
    if model.needs_comparator:
        ops.extend(exponential_prep_ops(model, layout))

    by_step = {b.step: i for i, b in enumerate(contract.binaries)}
    for t in range(1, contract.steps + 1):
        ops.append(accumulate_op(model, layout, t))
        ops.append(barrier_flag_op(model, layout, t))
        if t in by_step:
            i = by_step[t]
            ops.append(binary_flag_op(model, layout, i))
            ops.extend(constant_payoff_ops(model, layout, i))

    if model.put_reachable:
        ops.append(put_flag_op(model, layout))
        if model.needs_comparator:
            ops.append(put_comparator_op(model, layout))
            ops.append(put_scale_op(model, layout))
    ops.extend(zero_payoff_ops(model, layout))

    good = Condition(((layout.payoff_target, 1), (layout.scale_indicator, 1)))
    return PricingCircuit(ops=ops, layout=layout, mapping=model.mapping, good=good, model=model)
