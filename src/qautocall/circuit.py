"""Full pricing circuit for a single-asset autocallable.

Pipeline: the partial-exponential reference state is prepared first, while
its register is the only one in superposition, and the Gaussian loads per
timestep after it; each timestep then accumulates a quantized log-return
increment, flags a barrier crossing, and flags/pays any binary leg due at
that step; finally the knock-in put is valued through the integration
comparator and every remaining branch gets the zero-payoff rotation.

The quantized semantics (increment codes, thresholds, the payoff-to-amplitude
mapping) live in :class:`QuantizedModel`, which the classical quantized oracle
shares verbatim, so circuit and oracle can only disagree through the gate
algebra itself. One function, :func:`_increment_codes`, computes the
increment codes: the model reads them at every grid point, and
:func:`fit_format` fits the accumulator format from the same codes at the
grid's two end points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import AutocallableContract, FixedPointFormat
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
    PrimitiveOp,
    QubitRegister,
    Ry,
    injection_ops,
)


def _increment_codes(
    contract: AutocallableContract, frac_bits: int, points: np.ndarray
) -> np.ndarray:
    """Quantized per-step log-returns at the grid ``points``, ties to even,
    as floats: inf or nan where a code overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = contract.mu * contract.dt + contract.sigma * points * math.sqrt(contract.dt)
        return np.rint(value * 2**frac_bits)


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

    ``inc_codes`` holds the increment code of every grid point. Raises
    ``ValueError`` when ``fmt`` is wider than :data:`MAX_WIDTH` bits, or
    narrower than the format :func:`fit_format` fits from those codes,
    naming the int_bits it needs.
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

        if fmt.width > MAX_WIDTH:
            raise ValueError(f"format is {fmt.width} bits wide, more than {MAX_WIDTH}")
        fitted = _fit(contract, grid, fmt.frac_bits)
        if fitted is None or fmt.int_bits < fitted.int_bits:
            raise ValueError(
                "accumulated log-returns overflow the format; "
                + (f"int_bits >= {fitted.int_bits} required" if fitted
                   else f"no format of at most {MAX_WIDTH} bits holds them")
            )
        self.inc_codes = _increment_codes(contract, fmt.frac_bits, grid.points()).astype(np.int64)

        self.barrier_code = fmt.quantize(math.log(contract.barrier))
        self.strike_codes = tuple(
            fmt.quantize(math.log(b.strike)) for b in contract.binaries
        )
        self.put_strike_code = fmt.quantize(math.log(contract.strike))
        self.l_min_code = contract.steps * int(self.inc_codes[0])

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
        notional, discount = c.put_factors()
        f_max = max(
            (c.discounted_payout(i) for i in range(len(c.binaries))), default=0.0
        )
        # The put leg is worth (r_T - K) V at maturity, so its discounted floor
        # is (r_t_min - K) V e^{-rT}; clamped at zero when the quantized grid
        # cannot reach below the strike (the put then never pays).
        p_min = min(0.0, (r_t_min - c.strike) * notional * discount)
        if not math.isfinite(p_min):
            raise MappingError(
                f"the put floor (r_t_min - strike) * notional * e^(-rT) = {p_min} is not finite"
            )
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
        notional, discount = c.put_factors()
        return discount * notional * (r_top - self.mapping.r_t_min) / self.mapping.scale

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


def _fit(
    contract: AutocallableContract, grid: GaussianGridSpec, frac_bits: int
) -> FixedPointFormat | None:
    """Smallest signed format whose accumulator covers every cumulative code,
    or None when it is wider than :data:`MAX_WIDTH` bits or a code is not
    finite. The codes do not decrease along the grid (sigma >= 0), so those
    of its end points, the first and last of ``grid.points()``, span them."""
    ends = np.array([-grid.s_min, -grid.s_min + grid.ds * (2**grid.k - 1)])
    lo, hi = _increment_codes(contract, frac_bits, ends)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    # a T-step sum lies in [T lo, T hi]; w bits hold c when c, or ~c for c < 0,
    # has at most w - 1 bits
    T = contract.steps
    bits = max((c if c >= 0 else ~c).bit_length() for c in (T * int(lo), T * int(hi)))
    fmt = FixedPointFormat(max(0, bits - frac_bits), frac_bits)
    return fmt if fmt.width <= MAX_WIDTH else None


def fit_format(
    contract: AutocallableContract, grid: GaussianGridSpec, frac_bits: int
) -> FixedPointFormat:
    """Smallest signed format whose accumulator covers every cumulative code,
    fitted from the increment codes :class:`QuantizedModel` holds, read at
    the grid's two end points only: no grid array is built.

    Raises :class:`ConfigError`, naming the largest usable ``frac_bits``, when
    that format is wider than :data:`MAX_WIDTH` bits, and naming ``grid.s_min``
    first when the grid holds no probability.
    """
    grid.check_probability()
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
    """Qubit assignment for one pricing circuit.

    The put flag directly follows the binary flags, so the branch that pays
    zero, where none of these flags is set, is one register reading 0
    (:func:`zero_payoff_ops`). The payoff target and the scale qubit follow,
    the two-qubit register :attr:`PricingCircuit.good` reads.
    """

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
            f"put flag: {0 if self.put_flag is None else 1}",
            f"payoff target: 1",
            f"scale indicator: 1",
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
    put_flag = take(1).offset if model.put_reachable else None
    payoff_target = take(1).offset
    scale_indicator = take(1).offset
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
        layout.accumulator, (layout.gaussians[t - 1],), lambda g: codes[g],
        name=f"accumulate[{t}]",
    )


def barrier_flag_op(model: QuantizedModel, layout: RegisterLayout, t: int) -> Add:
    """c_t ^= (l_t < quantize(ln b)), strict."""
    fmt, code = model.fmt, model.barrier_code
    return Add(
        QubitRegister(layout.barrier_flags.qubit(t - 1), 1),
        (layout.accumulator,),
        lambda acc: (fmt.to_signed(acc) < code).astype(np.int64),
        name=f"barrier[{t}]",
    )


def binary_flag_op(model: QuantizedModel, layout: RegisterLayout, i: int) -> Add:
    """b_i ^= (l > quantize(ln k_i)) and no earlier binary fired."""
    fmt, code = model.fmt, model.strike_codes[i]
    flags = layout.binary_flags

    def fires(acc, earlier=0):  # earlier: the flags of binaries 0 .. i-1
        return ((fmt.to_signed(acc) > code) & (earlier == 0)).astype(np.int64)

    sources = (layout.accumulator,) + ((QubitRegister(flags.offset, i),) if i else ())
    return Add(QubitRegister(flags.qubit(i), 1), sources, fires, name=f"binary[{i}]")


def constant_payoff_ops(
    model: QuantizedModel, layout: RegisterLayout, i: int
) -> list[PrimitiveOp]:
    """Controlled on b_i: rotate the target to sqrt(level), and set the scale
    with ``binary_scale[i]``: scale ^= b_i."""
    level = model.binary_levels[i]
    flag = QubitRegister(layout.binary_flags.qubit(i), 1)
    return [
        Ry(layout.payoff_target, 2.0 * math.asin(math.sqrt(level)), flag, 1),
        Add(QubitRegister(layout.scale_indicator, 1), (flag,), lambda b: b,
            name=f"binary_scale[{i}]"),
    ]


def put_flag_op(model: QuantizedModel, layout: RegisterLayout) -> Add:
    """flag ^= (no binary fired) and (barrier crossed) and (l_T < quantize(ln K))."""
    fmt, code = model.fmt, model.put_strike_code

    def active(acc, crossed, fired=0):  # fired: the binary flags, if any
        return ((fmt.to_signed(acc) < code) & (crossed != 0) & (fired == 0)).astype(np.int64)

    sources = (layout.accumulator, layout.barrier_flags) + (
        (layout.binary_flags,) if layout.binary_flags else ()
    )
    return Add(QubitRegister(layout.put_flag, 1), sources, active, name="put_flag")


def exponential_prep_ops(model: QuantizedModel, layout: RegisterLayout) -> list[PrimitiveOp]:
    """The exponential over r in [0, x1], loaded as r' = x1 - r at the rate -a
    (the same weights), so that one amplification round loads it."""
    return partial_exponential_prep_ops(layout.exponential, -model.rate_step, model.put_x1)


def put_comparator_op(model: QuantizedModel, layout: RegisterLayout) -> Add:
    """Controlled integration comparator: target ^= flag and (r <= l_T - l_min - 1),
    tested on the reflection r' = x1 - r the exponential register holds
    (:func:`exponential_prep_ops`) as r' >= x1 - (l_T - l_min - 1)."""
    fmt, l_min, x1 = model.fmt, model.l_min_code, model.put_x1

    def below(reflected, acc, flag):
        reached = reflected >= x1 - (fmt.to_signed(acc) - l_min - 1)
        return ((flag == 1) & reached).astype(np.int64)

    sources = (layout.exponential, layout.accumulator, QubitRegister(layout.put_flag, 1))
    return Add(QubitRegister(layout.payoff_target, 1), sources, below, name="put_compare")


def put_scale_op(model: QuantizedModel, layout: RegisterLayout) -> Ry:
    angle = 2.0 * math.asin(math.sqrt(model.put_scale_sq))
    return Ry(layout.scale_indicator, angle, QubitRegister(layout.put_flag, 1), 1)


def zero_payoff_ops(model: QuantizedModel, layout: RegisterLayout) -> list[PrimitiveOp]:
    """On the remaining branch (no binary, put inactive) load the zero-payoff
    level, and set the scale with ``zero_scale``: scale ^= (no flag is set).
    Both read one register, the binary flags and the put flag, whichever
    exist; with neither, the rotation is uncontrolled and the flip constant."""
    j = layout.binary_flags.width if layout.binary_flags else 0
    width = j + (layout.put_flag is not None)
    offset = layout.binary_flags.offset if layout.binary_flags else layout.put_flag
    flags = QubitRegister(offset, width) if width else None
    angle = 2.0 * math.asin(math.sqrt(model.mapping.zero_level))

    def unset(value=0):  # the flags register's value, 0 without one
        return np.equal(value, 0).astype(np.int64)

    return [
        Ry(layout.payoff_target, angle, flags),
        Add(QubitRegister(layout.scale_indicator, 1), (flags,) if flags else (), unset,
            name="zero_scale"),
    ]


@dataclass
class PricingCircuit:
    """Assembled circuit plus everything needed to run and interpret it."""

    ops: list[PrimitiveOp]
    layout: RegisterLayout
    mapping: AmplitudeMapping
    good: QubitRegister  # the payoff target and the scale qubit: good where both read 1
    model: QuantizedModel


#: peak bytes per stored entry, temporaries included: traced with tracemalloc
#: op by op along A and a Grover step, Table-2 at (p, k) = (6, 3) and (4, 4)
#: (the latter at its 2**19 bound) peaked 77.3/75.4 bytes per entry in A's
#: ``Ry`` (where a rotation has partners, the state holds at most 128), and
#: 108.1/108.0 in the Grover step's, which pairs entries on the whole
#: support; 72.0 in ``Add``
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
    pipeline. The good state is ``good`` reading all ones: target = 1 and
    scale = 1.
    Raises :class:`CapacityError`, before any op is built, when the
    circuit's state cannot fit (:func:`_check_capacity`)."""
    model = QuantizedModel(contract, grid, fmt)
    layout = plan_layout(model)
    _check_capacity(layout)

    # the exponential prep first: it commutes with the Gaussian loads, and
    # its amplification round then runs on at most 2**w entries
    ops: list[PrimitiveOp] = []
    if model.needs_comparator:
        ops.extend(exponential_prep_ops(model, layout))
    gauss = gaussian_amplitudes(grid)
    for reg in layout.gaussians:
        ops.extend(injection_ops(reg, gauss))

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

    good = QubitRegister(layout.payoff_target, 2)
    return PricingCircuit(ops=ops, layout=layout, mapping=model.mapping, good=good, model=model)
