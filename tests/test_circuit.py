import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dense_state import to_dense
from test_oracles import mc_contracts
from qautocall import circuit
from qautocall.circuit import (
    BYTES_PER_ENTRY,
    QuantizedModel,
    build_pricing_circuit,
    exponential_prep_ops,
    fit_format,
    plan_layout,
    post_process,
    put_comparator_op,
)
from qautocall.contracts import AutocallableContract, BinaryOption, FixedPointFormat
from qautocall.errors import CapacityError, ConfigError, QAutocallError
from qautocall.estimation import build_grover, exact_amplitude
from qautocall.loading import GaussianGridSpec, integration_amplitude
from qautocall.oracles import closed_form_discretized, closed_form_quantized
from qautocall.simulator import (
    Add, PhaseOracle, QubitRegister, Ry, allocate, invert, probability,
)

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


def reference_increment(g, contract, grid, p):
    """Increment code of grid index ``g``, one index at a time in Python
    floats: (mu dt + sigma (g ds - s_min) sqrt(dt)) 2**p, rounded half to even."""
    value = contract.mu * contract.dt + contract.sigma * (
        g * grid.ds - grid.s_min
    ) * math.sqrt(contract.dt)
    return round(value * 2**p)


def _covers(fmt, codes):
    return all(-(2 ** (fmt.width - 1)) <= c < 2 ** (fmt.width - 1) for c in codes)


class TestIncrements:
    def test_flat_volatility_constant_increment(self, table2_flat):
        fmt = fit_format(table2_flat, GRID1, 4)
        codes = set(QuantizedModel(table2_flat, GRID1, fmt).inc_codes.tolist())
        assert codes == {fmt.quantize(0.1274)}

    def test_table2_up_move_frozen(self, table2):
        fmt = FixedPointFormat(2, 2)
        # mu*dt + sigma*3*sqrt(dt) = 0.842 -> 0.842*4 = 3.368 -> code 3
        assert QuantizedModel(table2, GRID1, fmt).inc_codes[1] == 3

    def test_symmetry_about_drift(self, table2):
        codes = QuantizedModel(table2, GRID2, fit_format(table2, GRID2, 16)).inc_codes
        step = 2.0**-16
        for g in range(4):
            lo = codes[g] * step
            hi = codes[3 - g] * step
            assert lo + hi == pytest.approx(2 * 0.1274, abs=2 * step)

    def test_overflow_names_required_int_bits(self, table2):
        # at p = 0 the codes are -1 and 1, so three steps reach -3 and 3: two
        # integer bits, and the 1-bit format holds only -1 and 0
        with pytest.raises(ValueError, match="int_bits >= 2 required"):
            QuantizedModel(table2, GRID1, FixedPointFormat(0, 0))

    @pytest.mark.parametrize("contract", ["table2", "table2_flat"])
    def test_model_codes_equal_the_per_index_increments(self, request, contract):
        contract = request.getfixturevalue(contract)
        for k in range(1, 13):
            grid = GaussianGridSpec(k=k, s_min=3.0)
            for p in (*range(0, 58, 6), 58):
                fmt = fit_format(contract, grid, p)
                want = [reference_increment(g, contract, grid, p) for g in range(2**k)]
                assert QuantizedModel(contract, grid, fmt).inc_codes.tolist() == want, (k, p)

    def test_format_fitted_from_the_two_end_indices(self, table2, monkeypatch):
        want = fit_format(table2, GRID1, 12)

        def no_grid(self):
            raise AssertionError("grid array built to fit the format")

        monkeypatch.setattr(GaussianGridSpec, "points", no_grid)
        assert fit_format(table2, GaussianGridSpec(k=40, s_min=3.0), 12) == want

    @seed(0)
    @settings(max_examples=200, deadline=None)
    @given(contract=mc_contracts(), k=st.integers(1, 12), p=st.integers(0, 62))
    def test_fitted_format_is_the_least_that_covers_the_envelope(self, contract, k, p):
        grid = GaussianGridSpec(k=k, s_min=3.0)
        T = contract.steps
        envelope = [T * reference_increment(g, contract, grid, p) for g in (0, 2**k - 1)]
        try:
            fmt = fit_format(contract, grid, p)
        except ConfigError:
            # refused only when not even the 64-bit format covers the envelope
            assert not _covers(FixedPointFormat(63 - p, p), envelope)
            return
        assert fmt.frac_bits == p
        assert _covers(fmt, envelope)
        if fmt.int_bits > 0:
            smaller = FixedPointFormat(fmt.int_bits - 1, p)
            assert not _covers(smaller, envelope)
            with pytest.raises(ValueError, match=f"int_bits >= {fmt.int_bits} required"):
                QuantizedModel(contract, grid, smaller)


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

    @pytest.mark.parametrize("steps, mu, p, int_bits", [(1, -1.0, 3, 0), (4, -0.5, 2, 1), (1, -2.0, 0, 1)])
    def test_envelope_at_a_power_of_two_takes_no_extra_bit(self, table2, steps, mu, p, int_bits):
        # T * lo = -2**j is the lowest code of a (j + 1)-bit format
        contract = dataclasses.replace(table2, steps=steps, mu=mu, sigma=0.0, binaries=())
        assert fit_format(contract, GRID1, p) == FixedPointFormat(int_bits, p)

    def test_accumulator_wider_than_int64_refused(self, table2):
        # without binaries the T = 3 envelope fits 64 bits up to p = 61; at
        # p = 62 the 65-bit sum of three codes would wrap in the int64 recursion
        contract = dataclasses.replace(table2, binaries=())
        assert fit_format(contract, GRID1, 61).width == 64
        with pytest.raises(ConfigError, match="largest usable p is 61"):
            fit_format(contract, GRID1, 62)
        with pytest.raises(ValueError, match="65 bits wide"):
            QuantizedModel(contract, GRID1, FixedPointFormat(2, 62))

    def test_widest_format_prices_like_narrower_ones(self, table2):
        contract = dataclasses.replace(table2, binaries=())
        want = closed_form_quantized(contract, GRID1, fit_format(contract, GRID1, 60))
        got = closed_form_quantized(contract, GRID1, fit_format(contract, GRID1, 61))
        assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestCircuitAgainstOracle:
    @pytest.mark.parametrize(
        "steps,p,k,qubits",
        # the exponential prep amplifies in one round, two PhaseOracle ops,
        # on Table-2 and on its 4- and 8-step variants
        [(3, 2, 1, 19), (3, 2, 2, 22), (3, 3, 1, 21), (4, 3, 1, 24), (8, 3, 1, 34)],
    )
    def test_post_processed_probability_matches_quantized_oracle(
        self, table2, steps, p, k, qubits
    ):
        contract = dataclasses.replace(table2, steps=steps)
        grid = GaussianGridSpec(k=k, s_min=3.0)
        fmt = fit_format(contract, grid, p)
        pc = build_pricing_circuit(contract, grid, fmt)
        assert pc.layout.num_qubits == qubits
        assert sum(isinstance(op, PhaseOracle) for op in pc.ops) == 2
        a = exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good)
        assert post_process(a, pc.mapping) == pytest.approx(
            closed_form_quantized(contract, grid, fmt), abs=1e-9
        )

    @seed(0)
    @settings(max_examples=100, deadline=None)
    @given(contract=mc_contracts(max_steps=4), k=st.sampled_from([1, 2]), p=st.integers(1, 6))
    def test_random_contracts_match_quantized_oracle(self, contract, k, p):
        # quantum-exact against cf-quant: the same price to 1e-9, or the same
        # error from both (a contract that pays nothing has no mapping)
        grid = GaussianGridSpec(k=k, s_min=3.0)

        def quantum():
            pc = build_pricing_circuit(contract, grid, fit_format(contract, grid, p))
            return post_process(exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good), pc.mapping)

        def classical():
            return closed_form_quantized(contract, grid, fit_format(contract, grid, p))

        outcomes = []
        for price in (quantum, classical):
            try:
                outcomes.append(price())
            except QAutocallError as err:
                outcomes.append((type(err), str(err)))
        got, want = outcomes
        if isinstance(want, float):
            assert got == pytest.approx(want, abs=1e-9)
        else:
            assert got == want

    @pytest.mark.parametrize("p,k,support", [(2, 1, 70), (3, 1, 196), (2, 2, 580)])
    def test_loaded_state_lists_only_its_support(self, table2, p, k, support):
        # only the Gaussian, exponential, payoff-target and scale qubits are in
        # superposition; every other register is a function of them. Entries
        # of order 1e-16 that the amplification leaves on r outside [0, x1]
        # may be listed too, within the 2**(kT + w + 2) bound
        grid = GaussianGridSpec(k=k, s_min=3.0)
        pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
        state = _run(pc)
        assert np.count_nonzero(np.abs(state.values) > 1e-12) == support
        assert len(state.indices) <= 2 ** (k * table2.steps + pc.layout.exponential.width + 2)

    @pytest.mark.parametrize("p,loading_ops", [(1, 37), (2, 40)])
    def test_twenty_step_circuit_loads_in_one_round(self, table2, fake_memory, p, loading_ops):
        # building allocates no state, so a memory limit large enough for
        # the 20-step support bound only lets the builder run
        fake_memory(2**50)
        contract = dataclasses.replace(table2, steps=20)
        pc = build_pricing_circuit(contract, GRID1, fit_format(contract, GRID1, p))
        assert sum(isinstance(op, PhaseOracle) for op in pc.ops) == 2
        # the loads: rotations and phases, and the window comparator twice
        first = next(i for i, op in enumerate(pc.ops) if getattr(op, "name", "") == "accumulate[1]")
        windows = [op.name for op in pc.ops[:first] if isinstance(op, Add)]
        assert windows == ["window", "window"] and first - len(windows) == loading_ops

    def test_branch_families_partition_unity(self, table2):
        fmt = fit_format(table2, GRID1, 2)
        pc = build_pricing_circuit(table2, GRID1, fmt)
        state = _run(pc)
        binaries = pc.layout.binary_flags
        flags = QubitRegister(binaries.offset, 3)  # b0, b1 and the put flag
        total = probability(state, QubitRegister(binaries.offset, 1), 1)
        total += probability(state, binaries, 0b10)
        total += probability(state, flags, 0b100)
        total += probability(state, flags, 0b000)
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
        b0, b1 = (QubitRegister(q, 1) for q in pc.layout.binary_flags.qubits)
        assert probability(state, b0, 1) == pytest.approx(1.0, abs=1e-12)
        assert probability(state, b1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_capacity_error_reports_register_breakdown(self, table2, fake_memory):
        # (p, k) = (4, 2): A's support bound 2**(2*3 + 5 + 1) = 2**12 is the
        # largest array; no op stores more than the state, so the put
        # comparator's 14 qubits do not count
        grid = GaussianGridSpec(k=2, s_min=3.0)
        fmt = fit_format(table2, grid, 4)
        fake_memory(BYTES_PER_ENTRY * 2**12)
        build_pricing_circuit(table2, grid, fmt)
        fake_memory(BYTES_PER_ENTRY * 2**12 - 4096)
        with pytest.raises(CapacityError) as err:
            build_pricing_circuit(table2, grid, fmt)
        message = str(err.value)
        assert "accumulator" in message and "gaussians: 3 x 2" in message
        assert "2**12 = 4096 entries" in message and "total: 26" in message

    def test_capacity_error_counts_the_support_bound(self, table2, fake_memory):
        # (p, k) = (1, 3): A's support bound 2**(3*3 + 1 + 1), whose bytes
        # fill whole pages, so one page less is short
        grid = GaussianGridSpec(k=3, s_min=3.0)
        fmt = fit_format(table2, grid, 1)
        fake_memory(BYTES_PER_ENTRY * 2**11)
        build_pricing_circuit(table2, grid, fmt)
        fake_memory(BYTES_PER_ENTRY * 2**11 - 4096)
        with pytest.raises(CapacityError, match=r"2\*\*11 = 2048 entries.*exponential: 1"):
            build_pricing_circuit(table2, grid, fmt)

    @pytest.mark.parametrize("case", ["table2", "8-step", "no-binaries", "flat", "no-flags"])
    def test_qubit_count_checked_before_layout_is_the_layouts(
        self, table2, table2_flat, monkeypatch, case
    ):
        # plan_layout checks the qubit count of the widths it then places:
        # the bound is met at the layout's qubit count and missed one below
        # it, and the error's breakdown totals that count
        contract = {
            "table2": table2,
            "8-step": dataclasses.replace(table2, steps=8),
            "no-binaries": dataclasses.replace(table2, binaries=()),
            "flat": table2_flat,
            "no-flags": dataclasses.replace(table2, binaries=(), barrier=0.2,
                                            strike=math.exp(-1.45)),
        }[case]
        fmt = fit_format(contract, GRID1, 2)
        qubits = build_pricing_circuit(contract, GRID1, fmt).layout.num_qubits
        monkeypatch.setattr(circuit, "MAX_QUBITS", qubits - 1)
        with pytest.raises(CapacityError, match=f"needs {qubits} qubits.*total: {qubits}\\)"):
            build_pricing_circuit(contract, GRID1, fmt)

    def test_layout_beyond_int64_indices_is_capacity_error(self, table2):
        fmt = fit_format(table2, GRID1, 40)
        with pytest.raises(CapacityError, match="more than the 62 that int64"):
            build_pricing_circuit(table2, GRID1, fmt)

    @pytest.mark.parametrize(
        "contract,p,k", [("table2", 2, 1), ("table2", 3, 1), ("table2", 2, 2), ("table2_flat", 2, 1)]
    )
    def test_support_within_bound_along_grover(self, request, contract, p, k):
        # after every op of A and of two Grover steps the state lists at most
        # 2**(kT + w + 2) entries, w the exponential register's width
        contract = request.getfixturevalue(contract)
        grid = GaussianGridSpec(k=k, s_min=3.0)
        pc = build_pricing_circuit(contract, grid, fit_format(contract, grid, p))
        n = pc.layout.num_qubits
        w = pc.layout.exponential.width if pc.layout.exponential else 0
        bound = 2 ** (k * contract.steps + w + 2)
        state = allocate(n)
        for op in pc.ops + 2 * build_grover(pc.ops, n, pc.good):
            assert len(state.apply(op).indices) <= bound

    @pytest.mark.parametrize("case,p,k,met", [
        ("table2", 2, 1, True), ("table2", 3, 1, True), ("table2", 2, 2, True),
        ("no-binaries", 2, 2, True), ("8-step", 2, 1, True), ("every-step", 2, 1, False),
    ])
    def test_support_of_a_within_its_bound(self, table2, case, p, k, met):
        # after every op of A the state lists at most 2**(kT + w + 1)
        # entries, the bound plan_layout sizes memory on; where ``met``, A
        # reaches it
        contract = {
            "table2": table2,
            "no-binaries": dataclasses.replace(table2, binaries=()),
            "8-step": dataclasses.replace(table2, steps=8),
            "every-step": AutocallableContract(
                notional=18.0, dt=1.0, steps=6, mu=0.05, sigma=0.2, rate=0.04, barrier=0.7,
                strike=1.0, binaries=tuple(BinaryOption(i, 1.2, float(i)) for i in range(1, 6)),
            ),
        }[case]
        grid = GaussianGridSpec(k=k, s_min=3.0)
        pc = build_pricing_circuit(contract, grid, fit_format(contract, grid, p))
        bound = 2 ** (k * contract.steps + pc.layout.exponential.width + 1)
        state = allocate(pc.layout.num_qubits)
        stored = [len(state.apply(op).indices) for op in pc.ops]
        assert max(stored) <= bound
        assert (max(stored) == bound) == met


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


@pytest.mark.parametrize("p,k,want", [
    (2, 1, "0x1.78d5fefef8bc6p-1"), (3, 1, "0x1.780d1bcff8a2bp-1"),
    (2, 2, "0x1.b22b163c7bef8p-1"), (4, 3, "0x1.a96657c23bd2bp-1"),
])
def test_table2_good_probability_is_pinned(table2, p, k, want):
    # the exact float of A|0>'s good-state probability: a change of layout or
    # addressing that keeps every kernel's float operations keeps it bit for bit
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    assert exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good).hex() == want


@pytest.mark.parametrize("p,k,ops,rotations", [(2, 2, 36, 19), (4, 3, 45, 28), (6, 4, 54, 37)])
def test_table2_op_counts_are_pinned(table2, p, k, ops, rotations):
    # one uniformly controlled Ry per loading layer: each Gaussian register
    # of k qubits loads in k rotations, on its own qubits
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    assert (len(pc.ops), sum(isinstance(op, Ry) for op in pc.ops)) == (ops, rotations)
    for reg in pc.layout.gaussians:
        assert sum(isinstance(op, Ry) and op.target in reg.qubits for op in pc.ops) == k


@pytest.mark.parametrize("p,k,stored", [(2, 1, 128), (3, 1, 256), (2, 2, 1024), (4, 3, 32768)])
def test_table2_stored_support_is_pinned(table2, p, k, stored):
    # the entries A|0> stores, the exponential prep's ~1e-17 leftovers on
    # r' > x1 included: a change of op order may change how many of those
    # are exactly 0, even when every kernel keeps its float operations
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    assert len(_run(pc).indices) == stored


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
    prep = exponential_prep_ops(model, layout)
    compare = put_comparator_op(model, layout)
    target = QubitRegister(layout.payoff_target, 1)
    for raw in range(2**m):
        x = model.fmt.to_signed(raw) - model.l_min_code - 1
        want = integration_amplitude(model.rate_step, x, model.put_x1) ** 2
        for flag in (0, 1):
            state = allocate(layout.num_qubits).apply_all(prep)
            state.apply(Add(layout.accumulator, (), lambda: raw))
            state.apply(Add(QubitRegister(layout.put_flag, 1), (), lambda: flag))
            state.apply(compare)
            assert probability(state, target, 1) == pytest.approx(flag * want, abs=1e-12)


# -- each Add against the 2**bits permutation table it replaced ---------------
#
# Test-local copies of the table builders the circuit used before its
# arithmetic became Add ops, and the tables of the controlled flips the scale
# Adds replaced: each returns its qubits (source, then target) and the table
# sending a value on them to its image.


def _accumulate_table(model, layout, t):
    k, m = model.grid.k, model.fmt.width
    vals = np.arange(2 ** (k + m), dtype=np.int64)
    g = vals & (2**k - 1)
    new_acc = ((vals >> k) + model.inc_codes[g]) % (2**m)
    return layout.gaussians[t - 1].qubits + layout.accumulator.qubits, g | (new_acc << k)


def _barrier_table(model, layout, t):
    m = model.fmt.width
    vals = np.arange(2 ** (m + 1), dtype=np.int64)
    acc = model.fmt.to_signed(vals & (2**m - 1))
    flip = (acc < model.barrier_code).astype(np.int64)
    return layout.accumulator.qubits + (layout.barrier_flags.qubit(t - 1),), vals ^ (flip << m)


def _binary_table(model, layout, i):
    m = model.fmt.width
    vals = np.arange(2 ** (m + i + 1), dtype=np.int64)
    acc = model.fmt.to_signed(vals & (2**m - 1))
    earlier = (vals >> m) & (2**i - 1) if i else np.zeros_like(vals)
    flip = ((acc > model.strike_codes[i]) & (earlier == 0)).astype(np.int64)
    qubits = layout.accumulator.qubits + tuple(layout.binary_flags.qubit(h) for h in range(i + 1))
    return qubits, vals ^ (flip << (m + i))


def _binary_scale_table(layout, i):
    # the scale qubit flipped under the control b_i = 1
    vals = np.arange(4, dtype=np.int64)
    return (layout.binary_flags.qubit(i), layout.scale_indicator), vals ^ ((vals & 1) << 1)


def _zero_scale_table(layout):
    # the scale qubit flipped under every binary flag and the put flag at 0
    flags = (layout.binary_flags.qubits if layout.binary_flags else ()) + (
        (layout.put_flag,) if layout.put_flag is not None else ()
    )
    n = len(flags)
    vals = np.arange(2 ** (n + 1), dtype=np.int64)
    clear = ((vals & (2**n - 1)) == 0).astype(np.int64)
    return flags + (layout.scale_indicator,), vals ^ (clear << n)


def _put_flag_table(model, layout):
    m, T, j = model.fmt.width, model.contract.steps, len(model.contract.binaries)
    vals = np.arange(2 ** (m + T + j + 1), dtype=np.int64)
    acc = model.fmt.to_signed(vals & (2**m - 1))
    crossed = ((vals >> m) & (2**T - 1)) != 0
    binaries_clear = ((vals >> (m + T)) & (2**j - 1)) == 0 if j else np.ones_like(vals, bool)
    flip = (binaries_clear & crossed & (acc < model.put_strike_code)).astype(np.int64)
    qubits = (
        layout.accumulator.qubits
        + layout.barrier_flags.qubits
        + (layout.binary_flags.qubits if layout.binary_flags else ())
        + (layout.put_flag,)
    )
    return qubits, vals ^ (flip << (m + T + j))


def _put_compare_table(model, layout):
    n, m = model.exp_width, model.fmt.width
    vals = np.arange(2 ** (n + m + 2), dtype=np.int64)
    reflected = vals & (2**n - 1)  # the register holds r' = x1 - r
    acc = model.fmt.to_signed((vals >> n) & (2**m - 1))
    flag = (vals >> (n + m)) & 1
    r = model.put_x1 - reflected
    flip = ((flag == 1) & (r <= acc - model.l_min_code - 1)).astype(np.int64)
    qubits = layout.exponential.qubits + layout.accumulator.qubits + (
        layout.put_flag, layout.payoff_target,
    )
    return qubits, vals ^ (flip << (n + m + 1))


def _window_table(model, layout):
    # the put flag flipped where the exponential register reads at most x1
    n = model.exp_width
    vals = np.arange(2 ** (n + 1), dtype=np.int64)
    flip = ((vals & (2**n - 1)) <= model.put_x1).astype(np.int64)
    return layout.exponential.qubits + (layout.put_flag,), vals ^ (flip << n)


def _amplifies(model):
    """Whether the exponential prep needs its amplification round, and with
    it the window comparator: a span [0, x1] that is not a power of two."""
    span = model.put_x1 + 1
    return model.needs_comparator and span & (span - 1) != 0


def _expand(op):
    """An Add as a table over its sources' then its target's qubits, LSB first."""
    regs = (*op.sources, op.target)
    qubits = tuple(q for reg in regs for q in reg.qubits)
    vals = np.arange(2 ** len(qubits), dtype=np.int64)
    parts, shift = [], 0
    for reg in regs:
        parts.append((vals >> shift) & (2**reg.width - 1))
        shift += reg.width
    *sources, target = parts
    ns = len(qubits) - op.target.width
    target = (target + op.f(*sources)) & (2**op.target.width - 1)
    return qubits, (vals & (2**ns - 1)) | (target << ns)


def _assert_table(op, want):
    """``op`` expands to the bijection ``want`` and its inverse undoes it."""
    qubits, table = _expand(op)
    assert np.bincount(table, minlength=len(table)).tolist() == [1] * len(table), op
    assert qubits == want[0], op
    assert table.tolist() == want[1].tolist(), op
    inverse = op.inverse()
    assert _expand(inverse)[1][table].tolist() == list(range(len(table))), op


@pytest.mark.parametrize(
    "contract,p,k",
    [("table2", 2, 1), ("table2", 3, 1), ("table2", 2, 2), ("table2", 4, 2),
     ("table2_flat", 2, 1), ("table2_flat", 3, 2)],
)
def test_adds_expand_to_the_tables_they_replaced(request, contract, p, k):
    contract = request.getfixturevalue(contract)
    grid = GaussianGridSpec(k=k, s_min=3.0)
    model = QuantizedModel(contract, grid, fit_format(contract, grid, p))
    layout = plan_layout(model)
    want = {}
    for t in range(1, contract.steps + 1):
        want[f"accumulate[{t}]"] = _accumulate_table(model, layout, t)
        want[f"barrier[{t}]"] = _barrier_table(model, layout, t)
    for i in range(len(contract.binaries)):
        want[f"binary[{i}]"] = _binary_table(model, layout, i)
        want[f"binary_scale[{i}]"] = _binary_scale_table(layout, i)
    want["zero_scale"] = _zero_scale_table(layout)
    if model.put_reachable:
        want["put_flag"] = _put_flag_table(model, layout)
    if model.needs_comparator:
        want["put_compare"] = _put_compare_table(model, layout)
    names = list(want)
    if _amplifies(model):  # the window comparator, computed and then uncomputed
        want["window"] = _window_table(model, layout)
        names += ["window", "window"]
    pc = build_pricing_circuit(contract, grid, model.fmt)
    adds = [op for op in pc.ops if isinstance(op, Add)]
    assert sorted(op.name for op in adds) == sorted(names)
    for op in adds:
        _assert_table(op, want[op.name])


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (4, 3)])
def test_add_names_name_the_census_stages(table2, p, k):
    # the stage of every arithmetic op and flag flip, as a gate census reads it
    # from the name; the exponential prep's one comparator is its window,
    # computed and uncomputed around a phase
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(table2, grid, fit_format(table2, grid, p))
    names = [op.name for op in pc.ops if isinstance(op, Add)]
    assert names == [
        "window", "window",
        "accumulate[1]", "barrier[1]", "binary[0]", "binary_scale[0]",
        "accumulate[2]", "barrier[2]", "binary[1]", "binary_scale[1]",
        "accumulate[3]", "barrier[3]", "put_flag", "put_compare", "zero_scale",
    ]


def _stage_registers(layout, name):
    """The (target, sources) registers a stage's op must name: plan_layout
    registers, single flag qubits, the leading run of the binary flags, or
    the binary flags and the put flag as one register."""
    one = lambda q: QubitRegister(q, 1)  # noqa: E731
    stage, _, index = name.rstrip("]").partition("[")
    if stage == "accumulate":
        return layout.accumulator, (layout.gaussians[int(index) - 1],)
    if stage == "barrier":
        return one(layout.barrier_flags.qubit(int(index) - 1)), (layout.accumulator,)
    if stage == "binary":
        i = int(index)
        earlier = (QubitRegister(layout.binary_flags.offset, i),) if i else ()
        return one(layout.binary_flags.qubit(i)), (layout.accumulator, *earlier)
    if stage == "binary_scale":
        return one(layout.scale_indicator), (one(layout.binary_flags.qubit(int(index))),)
    flags = (layout.binary_flags,) if layout.binary_flags else ()
    if stage == "put_flag":
        return one(layout.put_flag), (layout.accumulator, layout.barrier_flags, *flags)
    if stage == "window":
        return one(layout.put_flag), (layout.exponential,)
    if stage == "zero_scale":
        qubits = (layout.binary_flags.qubits if layout.binary_flags else ()) + (
            (layout.put_flag,) if layout.put_flag is not None else ()
        )
        every = (QubitRegister(qubits[0], len(qubits)),) if qubits else ()
        assert qubits == (every[0].qubits if every else ()), "flags are not one register"
        return one(layout.scale_indicator), every
    assert stage == "put_compare", name
    return one(layout.payoff_target), (layout.exponential, layout.accumulator, one(layout.put_flag))


@pytest.mark.parametrize(
    "steps,p,k,third_binary",
    [(3, 2, 1, False), (3, 3, 1, False), (3, 2, 2, False), (3, 4, 3, False),
     (8, 3, 1, False), (8, 3, 1, True)],
)
@pytest.mark.parametrize("flat", [False, True])
def test_register_ops_address_layout_registers(
    table2, table2_flat, steps, p, k, third_binary, flat
):
    # a gate census reads each adder's and comparator's widths off these registers;
    # a third binary's earlier flags are a two-qubit run
    contract = table2_flat if flat else table2
    extra = (BinaryOption(5, 1.2, 6.0),) if third_binary else ()
    contract = dataclasses.replace(contract, steps=steps, binaries=contract.binaries + extra)
    grid = GaussianGridSpec(k=k, s_min=3.0)
    pc = build_pricing_circuit(contract, grid, fit_format(contract, grid, p))
    layout = pc.layout
    adds = [op for op in pc.ops if isinstance(op, Add)]
    names = [f"{stage}[{t}]" for t in range(1, steps + 1) for stage in ("accumulate", "barrier")]
    names += [f"{stage}[{i}]" for i in range(len(contract.binaries))
              for stage in ("binary", "binary_scale")]
    names += ["put_flag"] * (layout.put_flag is not None)
    names += ["put_compare", "window", "window"] * (layout.exponential is not None)
    names += ["zero_scale"]
    assert sorted(op.name for op in adds) == sorted(names)
    for op in adds:
        assert (op.target, op.sources) == _stage_registers(layout, op.name), op
    # the payoff rotations, as a census reads their control widths: each
    # binary's on its flag, nonzero at 1, the put scale on the put flag,
    # nonzero at 1, and the zero payoff on the zero_scale flags, nonzero at 0
    # unless the zero level is 0
    want = [(layout.payoff_target, QubitRegister(q, 1), (1,)) for q in
            (layout.binary_flags.qubits if layout.binary_flags else ())]
    if layout.exponential:
        want.append((layout.scale_indicator, QubitRegister(layout.put_flag, 1), (1,)))
    flags = _stage_registers(layout, "zero_scale")[1]
    want.append((layout.payoff_target, flags[0] if flags else None,
                 (0,) if pc.mapping.zero_level else ()))
    payoff = [(op.target, op.control, tuple(v for v, a in enumerate(op.angles) if a))
              for op in pc.ops if isinstance(op, Ry)
              and op.target in (layout.payoff_target, layout.scale_indicator)]
    assert payoff == want
    # the prep's two reflections: about its window, a phase on the borrowed
    # put flag at 1, and about |0>, a phase on the exponential register at 0
    oracles = [(op.register, op.value) for op in pc.ops if isinstance(op, PhaseOracle)]
    assert oracles == ([(QubitRegister(layout.put_flag, 1), 1), (layout.exponential, 0)]
                       if layout.exponential else [])


@pytest.mark.parametrize("case", ["table2", "8-step", "no-binaries", "flat", "no-flags"])
def test_circuit_emits_only_the_three_op_kinds(table2, table2_flat, case):
    # rotations, register arithmetic and phases: every flag flip is an Add
    contract = {
        "table2": table2,
        "8-step": dataclasses.replace(table2, steps=8),
        "no-binaries": dataclasses.replace(table2, binaries=()),
        "flat": table2_flat,
        # no binary, and the put strike quantizes onto the lowest terminal
        # code: no flag qubit, so zero_scale has no source and always flips
        "no-flags": dataclasses.replace(table2, binaries=(), barrier=0.2, strike=math.exp(-1.45)),
    }[case]
    grid = GaussianGridSpec(k=1, s_min=3.0)
    fmt = fit_format(contract, grid, 2)
    pc = build_pricing_circuit(contract, grid, fmt)
    kinds = {type(op) for op in pc.ops}
    assert kinds == {Ry, Add} | ({PhaseOracle} if pc.layout.exponential else set())
    value = post_process(exact_amplitude(pc.ops, pc.layout.num_qubits, pc.good), pc.mapping)
    assert value == pytest.approx(closed_form_quantized(contract, grid, fmt), abs=1e-9)


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
