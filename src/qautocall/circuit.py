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
from .errors import CapacityError, MappingError, StructuralError
from .loading import (
    ExponentialPrepSpec,
    GaussianGridSpec,
    gaussian_amplitudes,
    integration_amplitude,
    partial_exponential_prep_ops,
)
from .simulator import (
    DEFAULT_QUBIT_BUDGET,
    Classical,
    Condition,
    PrimitiveOp,
    QubitRegister,
    Ry,
    X,
    injection_ops,
)


def log_return_increment(
    g: int, t: int, contract: AutocallableContract, grid: GaussianGridSpec, fmt: FixedPointFormat
) -> int:
    """Quantized per-step log-return for grid index ``g`` (same for every t)."""
    if not 0 <= g < 2**grid.k:
        raise ValueError(f"grid index {g} outside [0, {2 ** grid.k})")
    if not 1 <= t <= contract.steps:
        raise ValueError(f"timestep {t} outside [1, {contract.steps}]")
    value = contract.mu * contract.dt + contract.sigma * (
        g * grid.ds - grid.s_min
    ) * math.sqrt(contract.dt)
    code = fmt.quantize(value)
    if not fmt.covers(code):
        needed = int_bits_for([code], fmt.frac_bits, fmt.signed)
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

        self.inc_codes = np.array(
            [log_return_increment(g, 1, contract, grid, fmt) for g in range(2**grid.k)],
            dtype=np.int64,
        )
        lo, hi = int(self.inc_codes.min()), int(self.inc_codes.max())
        envelope = [0, lo, hi, T * lo, T * hi]
        if not (fmt.covers(min(envelope)) and fmt.covers(max(envelope))):
            needed = int_bits_for(envelope, fmt.frac_bits, fmt.signed)
            raise ValueError(
                f"accumulated log-returns span codes [{min(envelope)}, {max(envelope)}] "
                f"which overflow the format; int_bits >= {needed} required"
            )

        self.barrier_code = fmt.quantize(math.log(contract.barrier))
        self.strike_codes = tuple(
            fmt.quantize(math.log(b.strike)) for b in contract.binaries
        )
        self.put_strike_code = fmt.quantize(math.log(contract.strike))
        self.l_min_code = T * lo
        self.l_max_code = T * hi

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
        amp = integration_amplitude(self.rate_step, x, 0, self.put_x1)
        return amp * amp * self.put_scale_sq

    def signed_values(self, raw: np.ndarray) -> np.ndarray:
        if self.fmt.signed:
            half = 2 ** (self.fmt.width - 1)
            return raw - (raw >= half) * 2**self.fmt.width
        return raw


#: largest fractional width: codes must fit a signed 63-bit (int64) probe
MAX_FRAC_BITS = 62


def fit_format(
    contract: AutocallableContract, grid: GaussianGridSpec, frac_bits: int
) -> FixedPointFormat:
    """Smallest signed format whose accumulator covers every cumulative code."""
    probe = FixedPointFormat(MAX_FRAC_BITS - frac_bits, frac_bits, True)
    codes = [
        log_return_increment(g, 1, contract, grid, probe) for g in range(2**grid.k)
    ]
    T = contract.steps
    envelope = [0, min(codes), max(codes), T * min(codes), T * max(codes)]
    return FixedPointFormat(int_bits_for(envelope, frac_bits, True), frac_bits, True)


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


def accumulate_op(model: QuantizedModel, layout: RegisterLayout, t: int) -> Classical:
    """acc += increment(g_t), in place, mod 2**m."""
    k = model.grid.k
    m = model.fmt.width
    vals = np.arange(2 ** (k + m), dtype=np.int64)
    g = vals & (2**k - 1)
    acc = vals >> k
    new_acc = (acc + model.inc_codes[g]) % (2**m)
    table = g | (new_acc << k)
    return Classical(
        layout.gaussians[t - 1].qubits + layout.accumulator.qubits,
        table,
        name=f"accumulate[{t}]",
    )


def barrier_flag_op(model: QuantizedModel, layout: RegisterLayout, t: int) -> Classical:
    """c_t ^= (l_t < quantize(ln b)), strict."""
    m = model.fmt.width
    vals = np.arange(2 ** (m + 1), dtype=np.int64)
    acc = model.signed_values(vals & (2**m - 1))
    flip = (acc < model.barrier_code).astype(np.int64)
    table = vals ^ (flip << m)
    return Classical(
        layout.accumulator.qubits + (layout.barrier_flags.qubit(t - 1),),
        table,
        name=f"barrier[{t}]",
    )


def binary_flag_op(model: QuantizedModel, layout: RegisterLayout, i: int) -> Classical:
    """b_i ^= (l > quantize(ln k_i)) and no earlier binary fired."""
    m = model.fmt.width
    bits = m + i + 1
    vals = np.arange(2**bits, dtype=np.int64)
    acc = model.signed_values(vals & (2**m - 1))
    earlier = (vals >> m) & (2**i - 1) if i else np.zeros_like(vals)
    flip = ((acc > model.strike_codes[i]) & (earlier == 0)).astype(np.int64)
    table = vals ^ (flip << (m + i))
    qubits = layout.accumulator.qubits + tuple(
        layout.binary_flags.qubit(h) for h in range(i + 1)
    )
    return Classical(qubits, table, name=f"binary[{i}]")


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


def put_flag_op(model: QuantizedModel, layout: RegisterLayout) -> Classical:
    """flag ^= (no binary fired) and (barrier crossed) and (l_T < quantize(ln K))."""
    m = model.fmt.width
    T = model.contract.steps
    j = len(model.contract.binaries)
    bits = m + T + j + 1
    vals = np.arange(2**bits, dtype=np.int64)
    acc = model.signed_values(vals & (2**m - 1))
    crossed = ((vals >> m) & (2**T - 1)) != 0
    binaries_clear = ((vals >> (m + T)) & (2**j - 1)) == 0 if j else np.ones_like(vals, bool)
    flip = (binaries_clear & crossed & (acc < model.put_strike_code)).astype(np.int64)
    table = vals ^ (flip << (m + T + j))
    qubits = (
        layout.accumulator.qubits
        + layout.barrier_flags.qubits
        + (layout.binary_flags.qubits if layout.binary_flags else ())
        + (layout.put_flag,)
    )
    return Classical(qubits, table, name="put_flag")


def put_comparator_op(model: QuantizedModel, layout: RegisterLayout) -> Classical:
    """Controlled integration comparator: target ^= flag and (r <= l_T - l_min)."""
    n = model.exp_width
    m = model.fmt.width
    bits = n + m + 2
    vals = np.arange(2**bits, dtype=np.int64)
    r = vals & (2**n - 1)
    acc = model.signed_values((vals >> n) & (2**m - 1))
    flag = (vals >> (n + m)) & 1
    flip = ((flag == 1) & (r <= acc - model.l_min_code - 1)).astype(np.int64)
    table = vals ^ (flip << (n + m + 1))
    qubits = (
        layout.exponential.qubits
        + layout.accumulator.qubits
        + (layout.put_flag, layout.payoff_target)
    )
    return Classical(qubits, table, name="put_compare")


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


def build_pricing_circuit(
    contract: AutocallableContract,
    grid: GaussianGridSpec,
    fmt: FixedPointFormat,
    budget: int = DEFAULT_QUBIT_BUDGET,
    prep_strategy: str = "auto",
) -> PricingCircuit:
    """Assemble the full pricing circuit; see the module docstring for the
    pipeline. The good state is the conjunction (target=1 and scale=1)."""
    model = QuantizedModel(contract, grid, fmt)
    layout = plan_layout(model)
    if layout.num_qubits > budget:
        raise CapacityError(
            f"pricing circuit needs {layout.num_qubits} qubits, budget is {budget} "
            f"({layout.describe()})"
        )

    gauss = gaussian_amplitudes(grid)
    ops: list[PrimitiveOp] = []
    for reg in layout.gaussians:
        ops.extend(injection_ops(reg, gauss))
    if model.needs_comparator:
        spec = ExponentialPrepSpec(
            width=model.exp_width, a=model.rate_step, x0=0, x1=model.put_x1
        )
        ops.extend(partial_exponential_prep_ops(layout.exponential, spec, prep_strategy))

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
