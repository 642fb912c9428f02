import dataclasses
import math

import numpy as np
import pytest

from dense_state import to_dense
from qautocall.circuit import (
    QuantizedModel,
    build_pricing_circuit,
    fit_format,
    log_return_increment,
    plan_layout,
    post_process,
    put_comparator_op,
)
from qautocall.contracts import AutocallableContract, BinaryOption, FixedPointFormat
from qautocall.errors import CapacityError
from qautocall.estimation import exact_amplitude
from qautocall.loading import (
    ExponentialPrepSpec,
    GaussianGridSpec,
    integration_amplitude,
    partial_exponential_prep_ops,
)
from qautocall.oracles import closed_form_discretized, closed_form_quantized
from qautocall.simulator import Condition, QubitRegister, X, allocate, invert, probability

GRID1 = GaussianGridSpec(k=1, s_min=3.0)
GRID2 = GaussianGridSpec(k=2, s_min=3.0)


def _run(pc):
    state = allocate(pc.layout.num_qubits)
    state.apply_all(pc.ops)
    return state


class TestMapping:
    def test_table2_f_max_is_discounted_second_binary(self, table2):
        mapping = QuantizedModel(table2, GRID1, fit_format(table2, GRID1, 2)).mapping
        assert mapping.f_max == pytest.approx(5.0 * math.exp(-0.08), abs=1e-12)

    def test_zero_level_and_endpoints(self, table2):
        mapping = QuantizedModel(table2, GRID1, fit_format(table2, GRID1, 2)).mapping
        assert 0.0 < mapping.zero_level < 1.0
        assert post_process(1.0, mapping) == pytest.approx(mapping.f_max, abs=1e-12)
        assert post_process(0.0, mapping) == mapping.p_min
        assert post_process(mapping.zero_level, mapping) == pytest.approx(0.0, abs=1e-12)

    def test_p_min_is_discounted_put_floor(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        model = QuantizedModel(table2, GRID1, fmt)
        mapping = model.mapping
        wanted = (mapping.r_t_min - 1.0) * 18.0 * math.exp(-0.04 * 3)
        assert mapping.p_min == pytest.approx(wanted, abs=1e-12)
        assert mapping.r_t_min == pytest.approx(math.exp(model.l_min_code * 0.25), abs=1e-12)

    def test_flat_contract_clamps_floor_at_zero(self, table2_flat):
        mapping = QuantizedModel(table2_flat, GRID1, fit_format(table2_flat, GRID1, 2)).mapping
        assert mapping.p_min == 0.0
        assert mapping.zero_level == 0.0
        assert mapping.scale == pytest.approx(mapping.f_max)

    def test_max_binary_maps_to_amplitude_one(self, table2):
        model = QuantizedModel(table2, GRID1, fit_format(table2, GRID1, 2))
        assert model.binary_levels[1] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < model.binary_levels[0] < 1.0


class TestIncrements:
    def test_flat_volatility_constant_increment(self, table2_flat):
        fmt = fit_format(table2_flat, GRID1, 4)
        codes = {log_return_increment(g, table2_flat, GRID1, fmt) for g in range(2)}
        assert codes == {fmt.quantize(0.1274)}

    def test_table2_up_move_frozen(self, table2):
        fmt = FixedPointFormat(2, 2)
        # mu*dt + sigma*3*sqrt(dt) = 0.842 -> 0.842*4 = 3.368 -> code 3
        assert log_return_increment(1, table2, GRID1, fmt) == 3

    def test_symmetry_about_drift(self, table2):
        fmt = fit_format(table2, GRID2, 16)
        step = 2.0**-16
        for g in range(4):
            lo = log_return_increment(g, table2, GRID2, fmt) * step
            hi = log_return_increment(3 - g, table2, GRID2, fmt) * step
            assert lo + hi == pytest.approx(2 * 0.1274, abs=2 * step)

    def test_overflow_names_required_int_bits(self, table2):
        # up-move 0.842 quantizes to code 1, above the 1-bit format's max of 0
        with pytest.raises(ValueError, match="int_bits"):
            log_return_increment(1, table2, GRID1, FixedPointFormat(0, 0))

    def test_grid_index_validated(self, table2):
        with pytest.raises(ValueError):
            log_return_increment(2, table2, GRID1, FixedPointFormat(2, 2))


class TestFormatFitting:
    @pytest.mark.parametrize(
        "p,k,m", [(2, 1, 5), (3, 1, 6), (4, 1, 7), (2, 2, 5), (3, 2, 6), (4, 2, 7)]
    )
    def test_auto_width(self, table2, p, k, m):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        fmt = fit_format(table2, grid, p)
        assert fmt.width == m
        # minimality: one integer bit fewer no longer covers the envelope
        if fmt.int_bits > 0:
            smaller = FixedPointFormat(fmt.int_bits - 1, p)
            with pytest.raises(ValueError):
                QuantizedModel(table2, grid, smaller)


class TestCircuitAgainstOracle:
    @pytest.mark.parametrize("p,k,qubits", [(2, 1, 19), (2, 2, 22), (3, 1, 21)])
    def test_post_processed_probability_matches_quantized_oracle(self, table2, p, k, qubits):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        fmt = fit_format(table2, grid, p)
        pc = build_pricing_circuit(table2, grid, fmt)
        assert pc.layout.num_qubits == qubits
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        assert post_process(a, pc.mapping) == pytest.approx(
            closed_form_quantized(table2, grid, fmt), abs=1e-9
        )

    @pytest.mark.parametrize("p,k,support", [(2, 1, 128), (3, 1, 256), (2, 2, 1024)])
    def test_loaded_state_lists_only_its_support(self, table2, p, k, support):
        # only the Gaussian, exponential, payoff-target and scale qubits are in
        # superposition; every other register is a function of them
        grid = GaussianGridSpec(k=k, s_min=3.0)
        state = _run(build_pricing_circuit(table2, grid, fit_format(table2, grid, p)))
        assert len(state.indices) == support

    def test_branch_families_partition_unity(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        pc = build_pricing_circuit(table2, GRID1, fmt)
        state = _run(pc)
        lay = pc.layout
        b0, b1 = lay.binary_flags.qubits
        total = probability(state, Condition(((b0, 1),)))
        total += probability(state, Condition(((b0, 0), (b1, 1))))
        total += probability(state, Condition(((b0, 0), (b1, 0), (lay.put_flag, 1))))
        total += probability(state, Condition(((b0, 0), (b1, 0), (lay.put_flag, 0))))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_worst_path_contributes_zero_good_amplitude(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        model = QuantizedModel(table2, GRID1, fmt)
        assert model.put_level(model.l_min_code) == 0.0

    def test_circuit_inversion_round_trip(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        pc = build_pricing_circuit(table2, GRID1, fmt)
        state = _run(pc)
        state.apply_all(invert(pc.ops))
        target = np.zeros(2**pc.layout.num_qubits, dtype=complex)
        target[0] = 1.0
        assert np.abs(to_dense(state) - target).max() < 1e-10

    def test_monotone_precision_toward_discretized_value(self, table2):
        reference = closed_form_discretized(table2, GRID1)
        diffs = []
        for p in (2, 4):
            fmt = fit_format(table2, GRID1, p)
            pc = build_pricing_circuit(table2, GRID1, fmt)
            a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
            diffs.append(abs(post_process(a, pc.mapping) - reference))
        assert diffs[1] <= diffs[0]

    def test_flat_contract_prices_first_binary(self, table2_flat):
        fmt = fit_format(table2_flat, GRID1, 2)
        pc = build_pricing_circuit(table2_flat, GRID1, fmt)
        assert pc.layout.exponential is None
        assert pc.layout.put_flag is None
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        assert post_process(a, pc.mapping) == pytest.approx(2 * math.exp(-0.04), abs=1e-9)
        # both binaries are in the money, but only the first may fire
        state = _run(pc)
        b0, b1 = pc.layout.binary_flags.qubits
        assert probability(state, Condition(((b0, 1),))) == pytest.approx(1.0, abs=1e-12)
        assert probability(state, Condition(((b1, 1),))) == pytest.approx(0.0, abs=1e-12)

    def test_capacity_error_reports_register_breakdown(self, table2, fake_memory):
        grid = GaussianGridSpec(k=2, s_min=3.0)
        fmt = fit_format(table2, grid, 4)
        fake_memory(32 * 2**24)
        with pytest.raises(CapacityError) as err:
            build_pricing_circuit(table2, grid, fmt)
        message = str(err.value)
        assert "accumulator" in message and "gaussians" in message
        assert "26" in message


class TestPutBranchValue:
    def test_put_level_tracks_quantized_return(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        model = QuantizedModel(table2, GRID1, fmt)
        for v in range(model.l_min_code, model.put_strike_code):
            payoff = model.put_level(v) * model.mapping.scale + model.mapping.p_min
            r_v = math.exp(fmt.decode(v))
            wanted = 18.0 * (r_v - 1.0) * math.exp(-0.12)
            assert payoff == pytest.approx(wanted, abs=1e-9)

    def test_put_levels_within_unit_interval(self, table2):
        fmt = fit_format(table2, GRID1, 3)
        model = QuantizedModel(table2, GRID1, fmt)
        levels = [model.put_level(v) for v in range(model.l_min_code, model.put_strike_code)]
        assert all(0.0 <= lv <= 1.0 for lv in levels)
        assert levels == sorted(levels)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_put_comparator_loads_integration_amplitude(table2, p, k):
    grid = GaussianGridSpec(k=k, s_min=3.0)
    model = QuantizedModel(table2, grid, fit_format(table2, grid, p))
    n, m = model.exp_width, model.fmt.width
    # the comparator's registers packed onto n + m + 2 qubits, not the full circuit
    layout = dataclasses.replace(
        plan_layout(model),
        exponential=QubitRegister(0, n),
        accumulator=QubitRegister(n, m),
        put_flag=n + m,
        payoff_target=n + m + 1,
        num_qubits=n + m + 2,
    )
    spec = ExponentialPrepSpec(width=n, a=model.rate_step, x0=0, x1=model.put_x1)
    prep = partial_exponential_prep_ops(layout.exponential, spec)
    compare = put_comparator_op(model, layout)
    target = Condition(((layout.payoff_target, 1),))
    for raw in range(2**m):
        x = model.fmt.to_signed(raw) - model.l_min_code - 1
        want = integration_amplitude(model.rate_step, x, 0, model.put_x1) ** 2
        for flag in (0, 1):
            state = allocate(layout.num_qubits).apply_all(prep)
            state.apply_all(X(q) for j, q in enumerate(layout.accumulator.qubits) if raw >> j & 1)
            if flag:
                state.apply(X(layout.put_flag))
            state.apply(compare)
            assert probability(state, target) == pytest.approx(flag * want, abs=1e-12)


def _tie_contract(barrier, strike, binaries=()):
    return AutocallableContract(
        notional=10.0, dt=1.0, steps=2 if binaries else 1, mu=0.0, sigma=0.25,
        rate=0.0, barrier=barrier, strike=strike, binaries=binaries,
    )


def test_barrier_tie_resolves_false():
    grid = GaussianGridSpec(k=1, s_min=1.0)
    fmt = FixedPointFormat(2, 2)
    # increments are exactly +-0.25 -> codes +-1; barrier ln(e^-0.25) -> code -1:
    # the down path lands exactly on the threshold, strict '<' keeps it uncrossed
    tie = _tie_contract(barrier=math.exp(-0.25), strike=math.exp(0.25))
    model = QuantizedModel(tie, grid, fmt)
    assert set(model.inc_codes) == {-1, 1}
    assert model.barrier_code == -1
    assert closed_form_quantized(tie, grid, fmt) == pytest.approx(0.0, abs=1e-12)
    # moving the barrier to code 0 turns the same path into a real crossing
    crossing = _tie_contract(barrier=math.exp(-0.1), strike=math.exp(0.25))
    assert closed_form_quantized(crossing, grid, fmt) < -1.0


def test_binary_tie_resolves_false():
    grid = GaussianGridSpec(k=1, s_min=1.0)
    fmt = FixedPointFormat(2, 2)
    legs = (BinaryOption(1, math.exp(0.25), 1.0),)
    # binary threshold code 1 equals the up-move code: strict '>' rejects the tie;
    # barrier at code -6 is unreachable, so everything lands in the zero branch
    tie = _tie_contract(barrier=math.exp(-1.5), strike=math.exp(0.5), binaries=legs)
    assert QuantizedModel(tie, grid, fmt).strike_codes == (1,)
    assert closed_form_quantized(tie, grid, fmt) == pytest.approx(0.0, abs=1e-12)
    # lowering the strike to code 0 pays the binary on every up-start path
    paying = _tie_contract(
        barrier=math.exp(-1.5), strike=math.exp(0.5),
        binaries=(BinaryOption(1, math.exp(0.1), 1.0),),
    )
    assert closed_form_quantized(paying, grid, fmt) == pytest.approx(0.5, abs=1e-12)


def test_derive_mapping_needs_some_payout():
    contract = AutocallableContract(
        notional=5.0, dt=1.0, steps=1, mu=0.3, sigma=0.0, rate=0.0,
        barrier=0.5, strike=1.0,
    )
    grid = GaussianGridSpec(k=1, s_min=3.0)
    from qautocall.errors import MappingError

    with pytest.raises(MappingError, match="zero"):
        QuantizedModel(contract, grid, fit_format(contract, grid, 2))
