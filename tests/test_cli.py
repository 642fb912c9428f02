import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qautocall
from qautocall import cli
from qautocall.circuit import BYTES_PER_ENTRY
from qautocall.cli import main
from qautocall.errors import PreconditionError, StructuralError
from qautocall.loading import BYTES_PER_POINT
from qautocall.oracles import _MC_BLOCK, BYTES_PER_UNIFORM

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

#: an integer no int64 or float holds
BIG = "1" + "0" * 400

DEGENERATE = """\
[contract]
notional = 5.0
dt = 1.0
steps = 1
mu = 0.3
sigma = 0.0
rate = 0.0
barrier = 0.5
strike = 1.0
"""


def _run(tmp_path, command, text, *extra):
    config = tmp_path / "run.ini"
    config.write_text(text)
    out = tmp_path / "out.csv"
    outs = () if command == "validate" else ("--out", str(out))
    code = main([command, "--config", str(config), *outs, *extra])
    return code, out


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "sweep",
            CONTRACT + "[fixedpoint]\np = 2\n[sweep]\nk_values = 1\nmethods = cf-quant\n",
            "[grid]",
        ),
        (
            "price",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\nint_bits = 0\n"
            "[estimation]\nmethod = cf-quant\n",
            "unknown key 'fixedpoint.int_bits'",
        ),
        (
            "price",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 70\n"
            "[estimation]\nmethod = cf-quant\n",
            "fixedpoint.p",
        ),
        (
            "sweep",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[sweep]\np_values = 2, 70\n"
            "methods = cf-quant\n",
            "sweep.p_values",
        ),
        (
            "price",
            CONTRACT.replace("sigma = 0.2382", "sigma = 0.5")
            + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 62\n[estimation]\nmethod = cf-quant\n",
            "largest usable p is 60",
        ),
        (
            "sweep",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n[sweep]\nk_values = 0\n"
            "methods = cf-quant\n",
            "sweep.k_values",
        ),
        ("resources", CONTRACT + "[resources]\nsteps = 0\n", "resources.steps"),
        ("resources", CONTRACT + "[resources]\nepsilon = 2.0\n", "resources.epsilon"),
        ("resources", CONTRACT + "[resources]\nm_values = 0\n", "resources.m_values"),
        ("resources", CONTRACT + "[resources]\ndt = 0\n", "resources.dt"),
        ("resources", CONTRACT + "[resources]\nnotional = -5\n", "resources.notional"),
        ("resources", CONTRACT + "[resources]\nstrike = -1\n", "resources.strike"),
        ("resources", CONTRACT + "[resources]\nsigma_max = -1\n", "resources.sigma_max"),
        ("resources", CONTRACT + "[resources]\nf_max = -100\n", "resources.f_max"),
        ("resources", CONTRACT + "[resources]\nsigma_max = 0\n", "'resources.sigma_max'"),
        (
            "price",
            CONTRACT.replace("1:1.1:2.0", "1:0:2.0")
            + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n[estimation]\nmethod = cf-quant\n",
            "contract: binary strike must be positive",
        ),
        (
            "price",
            "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n[estimation]\nmethod = cf-quant\n",
            "[contract]",
        ),
        ("sweep", CONTRACT + "[sweep]\nmethods = cf-disc\n", "[grid]"),
        (
            "sweep",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[sweep]\nmethods = cf-quant\n",
            "fixedpoint.p",
        ),
        (
            "price",
            CONTRACT + "[estimation]\nmethod = mc\nseed = -5\n",
            "'estimation.seed' must be in [0, 2**63 - 1], got '-5'",
        ),
        (
            "price",
            CONTRACT.replace("mu = 0.1274", "mu = 1e308")
            + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n[estimation]\nmethod = cf-quant\n",
            "no p is usable",
        ),
        (
            "price",
            CONTRACT.replace("mu = 0.1274", "mu = 1e308")
            + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n"
            "[estimation]\nmethod = quantum-exact\n",
            "no p is usable",
        ),
        (
            "price",
            CONTRACT.replace("mu = 0.1274", "mu = nan")
            + "[grid]\nk = 1\ns_min = 3.0\n[estimation]\nmethod = cf-disc\n",
            "'contract.mu' must be finite, got 'nan'",
        ),
        (
            "price",
            CONTRACT.replace("rate = 0.04", "rate = inf")
            + "[grid]\nk = 1\ns_min = 3.0\n[estimation]\nmethod = cf-disc\n",
            "'contract.rate' must be finite, got 'inf'",
        ),
        (
            "price",
            CONTRACT.replace("rate = 0.04", "rate = -1000")
            + "[estimation]\nmethod = mc\n",
            "rate -1000.0 overflows the discount factor",
        ),
        (
            "price",
            CONTRACT.replace("1:1.1:2.0", "1:1.1:nan") + "[estimation]\nmethod = mc\n",
            "invalid value for 'contract.binaries'",
        ),
        (
            "price",
            CONTRACT + "[grid]\nk = 1\ns_min = inf\n[estimation]\nmethod = cf-disc\n",
            "'grid.s_min' must be finite",
        ),
        ("resources", "[resources]\nsigma_max = nan\n", "'resources.sigma_max' must be finite"),
        ("resources", "[resources]\ndt = inf\n", "'resources.dt' must be finite"),
        ("resources", "[resources]\nf_max = inf\n", "'resources.f_max' must be finite"),
        ("resources", "[resources]\nmu = -inf\n", "'resources.mu' must be finite"),
        (
            "price",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\nsmin = 3.0\n[estimation]\nmethod = mc\n",
            "unknown key 'grid.smin' (did you mean 's_min'?)",
        ),
        ("price", CONTRACT + "[gird]\nk = 1\n", "unknown section '[gird]' (did you mean '[grid]'?)"),
        (
            "price",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n"
            "[estimation]\nmethod = quantum-iqae\nshots = 100000000000000000000\n",
            "'estimation.shots' must be in [1, 2**63 - 1], got '100000000000000000000'",
        ),
        (
            "price",
            CONTRACT.replace("notional = 18.0", "notional = 18%") + "[estimation]\nmethod = mc\n",
            "invalid value for 'contract.notional': '18%'",
        ),
        (
            "price",
            CONTRACT.replace("strike = 1.0", "strike = %(dt)s") + "[estimation]\nmethod = mc\n",
            "invalid value for 'contract.strike': '%(dt)s'",
        ),
        (
            "price",
            CONTRACT + "[grid]\nk = 1024\ns_min = 3.0\n[fixedpoint]\np = 2\n"
            "[estimation]\nmethod = cf-quant\n",
            "'grid.k' must be in [1, 62], got '1024'",
        ),
        (
            "sweep",
            CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n[sweep]\n"
            "k_values = 1, 1024\nmethods = quantum-exact\n",
            "'sweep.k_values' must all be in [1, 62], got '1, 1024'",
        ),
        ("validate", CONTRACT + f"[grid]\nk = {BIG}\ns_min = 3.0\n", "'grid.k' must be in [1, 62]"),
        (
            "validate",
            CONTRACT.replace("steps = 3", f"steps = {BIG}"),
            "'contract.steps' must be in [1, 2**63 - 1]",
        ),
        *(
            ("resources", f"[resources]\n{key} = {BIG}\n", f"'resources.{key}' must")
            for key in ("steps", "assets", "layers", "gaussian_qubits", "binaries", "m_values")
        ),
        *(
            ("validate", f"[estimation]\n{key} = {2**63}\n",
             f"'estimation.{key}' must be in [{low}, 2**63 - 1], got '{2**63}'")
            for key, low in (("paths", 1), ("seed", 0))
        ),
    ],
    ids=[
        "k-values-without-grid", "int-bits-too-small", "p-too-large", "sweep-p-too-large",
        "increment-overflows-probe", "sweep-k-zero", "resources-steps-zero",
        "resources-epsilon-above-1", "resources-m-zero", "resources-dt-zero",
        "resources-notional-negative", "resources-strike-negative",
        "resources-sigma-max-negative", "resources-f-max-negative",
        "resources-sigma-max-zero", "binary-strike-zero",
        "price-without-contract", "sweep-without-grid", "sweep-without-p", "negative-seed",
        "mu-overflows-every-format-cf-quant", "mu-overflows-every-format-quantum-exact",
        "mu-nan", "rate-inf", "rate-overflows-discount", "binary-payout-nan", "s-min-inf",
        "resources-sigma-max-nan", "resources-dt-inf", "resources-f-max-inf", "resources-mu-inf",
        "unknown-key-hint", "unknown-section-hint", "shots-beyond-int64",
        "percent-read-literally", "interpolation-read-literally",
        "grid-k-beyond-int64-indices", "sweep-k-beyond-int64-indices", "grid-k-10-to-the-400",
        "contract-steps-10-to-the-400", "resources-steps-10-to-the-400",
        "resources-assets-10-to-the-400", "resources-layers-10-to-the-400",
        "resources-gaussian-qubits-10-to-the-400", "resources-binaries-10-to-the-400",
        "resources-m-values-10-to-the-400", "paths-beyond-int64", "seed-beyond-int64",
    ],
)
def test_config_faults_exit_1_with_message(tmp_path, capsys, command, text, message):
    code, out = _run(tmp_path, command, text)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert message in err
    assert not out.exists()


def test_negative_seed_override_exits_1(tmp_path, capsys):
    code, out = _run(tmp_path, "price", CONTRACT + "[estimation]\nmethod = mc\n", "--seed", "-1")
    assert code == 1
    assert capsys.readouterr().err == "config error: '--seed' must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_exit_1(tmp_path, capsys, threads):
    text = CONTRACT + "[estimation]\nmethod = mc\npaths = 1000\n"
    code, out = _run(tmp_path, "sweep", text, "--threads", str(threads))
    assert code == 1
    assert capsys.readouterr().err == f"config error: '--threads' must be >= 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "make",
    [lambda path: None, Path.mkdir, lambda path: path.write_bytes(b"\xff")],
    ids=["missing", "directory", "not-utf-8"],
)
def test_unreadable_config_exits_1(tmp_path, capsys, make):
    config = tmp_path / "run.ini"
    make(config)
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read {config}: ")


def test_unwritable_out_exits_1_without_a_file(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(RESOURCES_ONLY)
    out = tmp_path / "missing" / "out.csv"
    assert main(["resources", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
    assert not out.parent.exists()


def test_resource_ranges_reported_together(tmp_path, capsys):
    text = CONTRACT + "[resources]\nassets = 0\nlayers = -1\ngaussian_qubits = 0\nbinaries = -1\n"
    code, out = _run(tmp_path, "resources", text)
    err = capsys.readouterr().err
    assert code == 1
    for key in ("assets", "layers", "gaussian_qubits", "binaries"):
        assert f"config error: 'resources.{key}' must be in [" in err
    assert not out.exists()


def test_degenerate_contract_exits_1_with_message(tmp_path, capsys):
    text = DEGENERATE + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        "[estimation]\nmethod = cf-quant\n"
    code, out = _run(tmp_path, "price", text)
    assert code == 1
    assert "degenerate contract" in capsys.readouterr().err
    assert not out.exists()


def test_circuit_beyond_physical_memory_exits_2(tmp_path, capsys, fake_memory):
    # (p, k) = (2, 1): the support bound 2**(3 + 3 + 2) is the largest array;
    # no op stores more than the state, so memory for 2**8 entries suffices
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        "[estimation]\nmethod = quantum-exact\n"
    fake_memory(BYTES_PER_ENTRY * 2**8)
    code, out = _run(tmp_path, "price", text)
    assert code == 0
    out.unlink()
    fake_memory(BYTES_PER_ENTRY * 2**8 - 4096)
    code, out = _run(tmp_path, "price", text)
    assert code == 2
    err = capsys.readouterr().err
    assert "2**8 = 256 entries" in err and "total: 19" in err
    assert not out.exists()


def test_closed_form_beyond_physical_memory_exits_2(tmp_path, capsys, fake_memory):
    fake_memory(4096)  # 51 kept states; Table-2 at k = 6 keeps over 200 in one step
    text = CONTRACT + "[grid]\nk = 6\ns_min = 3.0\n[fixedpoint]\np = 12\n" \
        "[estimation]\nmethod = cf-quant\n"
    code, out = _run(tmp_path, "price", text)
    assert code == 2
    assert capsys.readouterr().err.startswith("capacity error: the closed form holds ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["mc", "mc-disc"])
def test_monte_carlo_paths_beyond_physical_memory_exit_0(tmp_path, fake_memory, method):
    # the payoffs are reduced block by block, so once one block's uniforms
    # fit no path count is refused: more paths than 8-byte payoffs fit
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[estimation]\nmethod = {}\npaths = {}\n"
    memory = BYTES_PER_UNIFORM * 3 * _MC_BLOCK
    fake_memory(memory)
    paths = memory // 8 + 1
    code, out = _run(tmp_path, "price", text.format(method, paths))
    assert code == 0
    assert _rows(out)[0]["paths_or_shots"] == str(paths)


@pytest.mark.parametrize("method", ["mc", "mc-disc"])
def test_monte_carlo_block_beyond_physical_memory_exits_2(tmp_path, capsys, fake_memory, method):
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[estimation]\nmethod = {}\npaths = {}\n"
    # 4096 paths of 3 steps: one block of 4096 x 3 uniforms
    fake_memory(BYTES_PER_UNIFORM * 3 * 4096)
    code, out = _run(tmp_path, "price", text.format(method, 4096))
    assert code == 0
    out.unlink()
    fake_memory(BYTES_PER_UNIFORM * 3 * 4096 - 4096)
    code, out = _run(tmp_path, "price", text.format(method, 4096))
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "capacity error: a Monte Carlo block draws 4096 x 3 uniforms"
    )
    assert not out.exists()
    # 10**10 steps: refused before any uniform is drawn
    fake_memory(2**40)
    code, out = _run(
        tmp_path, "price", text.replace("steps = 3", "steps = 10000000000").format(method, 1000)
    )
    assert code == 2
    assert "1000 x 10000000000 uniforms" in capsys.readouterr().err
    assert not out.exists()


def _price_beyond_int64_steps(tmp_path, settings):
    """Run ``price`` on the contract at 2**63 - 1 steps, with ``settings``
    appended, in a separate process with a timeout: a run that works step
    after step fails, not hangs."""
    config = tmp_path / "run.ini"
    config.write_text(CONTRACT.replace("steps = 3", f"steps = {2**63 - 1}") + settings)
    src = str(Path(qautocall.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qautocall.cli", "price", "--config", str(config)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=30,
    )


def test_cf_disc_beyond_int64_steps_exits_2(tmp_path):
    # refused before any step's barrier index is bisected
    done = _price_beyond_int64_steps(tmp_path, "[grid]\nk = 1\ns_min = 3.0\n"
                                     "[estimation]\nmethod = cf-disc\n")
    assert done.returncode == 2
    assert done.stderr.startswith(
        f"capacity error: the closed form keeps a barrier index for each of {2**63 - 1} steps"
    )


@pytest.mark.parametrize("method, error", [
    ("cf-quant", f"the closed form keeps a barrier code for each of {2**63 - 1} steps"),
    ("quantum-exact", f"pricing circuit needs {2 * (2**63 - 1) + 132} qubits"),
], ids=["cf-quant", "quantum-exact"])
def test_quantized_methods_beyond_int64_steps_exit_2(tmp_path, method, error):
    # at p = 0 the accumulator fits 64 bits, so cf-quant reaches its
    # per-step barrier list and quantum-exact its layout of 2**63 registers:
    # both are refused before either is built
    done = _price_beyond_int64_steps(tmp_path, "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\n"
                                     f"p = 0\n[estimation]\nmethod = {method}\n")
    assert done.returncode == 2
    assert done.stderr.startswith(f"capacity error: {error}")


GRID_METHODS = ("quantum-exact", "quantum-iqae", "cf-quant", "cf-disc", "mc-disc")


@pytest.mark.parametrize("method", GRID_METHODS)
def test_grid_beyond_physical_memory_exits_2(tmp_path, capsys, fake_memory, method):
    text = CONTRACT + "[grid]\nk = {}\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        "[estimation]\nmethod = {}\npaths = 100\n"
    fake_memory(BYTES_PER_POINT * 2**9)
    code, out = _run(tmp_path, "price", text.format(10, method))
    assert code == 2
    assert capsys.readouterr().err == (
        f"capacity error: the grid has 2**10 = 1024 points, {BYTES_PER_POINT} bytes each, "
        f"more than the {BYTES_PER_POINT * 2**9} bytes of physical memory; reduce k\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("method", GRID_METHODS)
def test_grid_of_2_to_the_40_points_exits_2(tmp_path, capsys, method):
    # the increments' range is read at the two end points, so nothing of
    # size 2**40 is built or looped over before the capacity check
    text = CONTRACT + "[grid]\nk = 40\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        f"[estimation]\nmethod = {method}\n"
    code, out = _run(tmp_path, "price", text)
    assert code == 2
    assert capsys.readouterr().err.startswith("capacity error: the grid has 2**40 = ")


def test_main_calls_in_sequence_keep_their_own_defaults(tmp_path, capsys):
    text = CONTRACT + "[estimation]\nmethod = mc\npaths = 1000\nseed = 7\n"
    code, out = _run(tmp_path, "sweep", text, "--threads", "3", "--seed", "4")
    assert code == 0
    assert [row["seed"] for row in _rows(out)] == ["4"]
    code, out = _run(tmp_path, "price", text)
    assert code == 0
    assert [(row["seed"], row["wall_ms"]) for row in _rows(out)] == [("7", "")]
    with pytest.raises(SystemExit) as exit_:
        _run(tmp_path, "price", text, "--threads", "3")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "steps, k, method",
    [(3, 9, "cf-quant"), (20, 2, "cf-quant"), (20, 2, "cf-disc")],
    ids=["table2-k9-cf-quant", "20-step-k2-cf-quant", "20-step-k2-cf-disc"],
)
def test_closed_forms_run_beyond_2_to_the_26_grid_paths(tmp_path, steps, k, method):
    text = CONTRACT.replace("steps = 3", f"steps = {steps}") + (
        f"[grid]\nk = {k}\ns_min = 3.0\n[fixedpoint]\np = 12\n[estimation]\nmethod = {method}\n"
    )
    code, out = _run(tmp_path, "price", text)
    assert code == 0
    assert math.isfinite(float(_rows(out)[0]["value"]))


@pytest.mark.parametrize("error", [StructuralError, PreconditionError])
def test_internal_errors_exit_4_with_message(tmp_path, capsys, monkeypatch, error):
    def fail(*args):
        raise error("broken op")

    monkeypatch.setattr(cli, "build_pricing_circuit", fail)
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        "[estimation]\nmethod = quantum-exact\n"
    code, out = _run(tmp_path, "price", text)
    assert code == 4
    assert capsys.readouterr().err == "internal error: broken op\n"
    assert not out.exists()


def test_29_qubit_quantum_exact_matches_cf_quant(tmp_path):
    # Table-2 at (p, k) = (4, 3): 29 qubits, a 2**16-entry support bound
    point = CONTRACT + "[grid]\nk = 3\ns_min = 3.0\n[fixedpoint]\np = 4\n"
    rows = {}
    for method in ("quantum-exact", "cf-quant", "quantum-iqae"):
        est = f"[estimation]\nmethod = {method}\nepsilon = 0.001\nseed = 0\n"
        code, out = _run(tmp_path, "price", point + est)
        assert code == 0
        rows[method] = _rows(out)[0]
    want = float(rows["cf-quant"]["value"])
    assert float(rows["quantum-exact"]["value"]) == pytest.approx(want, abs=1e-9)
    assert float(rows["quantum-iqae"]["ci_low"]) <= want <= float(rows["quantum-iqae"]["ci_high"])


def test_35_qubit_quantum_exact_matches_cf_quant(tmp_path):
    # Table-2 at (p, k) = (10, 1): 35 qubits and a 2**16-entry support bound,
    # while the put comparator spans w + m + 2 = 26 qubits: no op may be sized
    # by 2**(its width)
    point = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 10\n"
    values = {}
    for method in ("quantum-exact", "cf-quant"):
        code, out = _run(tmp_path, "price", point + f"[estimation]\nmethod = {method}\n")
        assert code == 0
        values[method] = float(_rows(out)[0]["value"])
    assert values["quantum-exact"] == pytest.approx(values["cf-quant"], abs=1e-9)


def test_quantum_iqae_price_covers_cf_quant(tmp_path):
    point = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n"
    est = "[estimation]\nmethod = {}\nepsilon = 0.05\nalpha = 0.05\nseed = 1\n"
    code, out = _run(tmp_path, "price", point + est.format("cf-quant"))
    assert code == 0
    want = float(_rows(out)[0]["value"])
    code, out = _run(tmp_path, "price", point + est.format("quantum-iqae"))
    assert code == 0
    row = _rows(out)[0]
    assert float(row["ci_low"]) <= want <= float(row["ci_high"])
    assert int(row["oracle_calls"]) > 0


def test_sweep_csv_identical_across_thread_counts(tmp_path):
    # the Monte Carlo points are one task, which runs beside the closed forms
    text = CONTRACT + (
        "[grid]\nk = 2\ns_min = 3.0\n[fixedpoint]\np = 2\n"
        "[estimation]\npaths = 20000\nseed = 3\n"
        "[sweep]\nk_values = 2, 3, 4\np_values = 2, 3, 4\n"
        "methods = cf-quant, cf-disc, mc-disc, mc\n"
    )
    code, out = _run(tmp_path, "sweep", text, "--threads", "1")
    assert code == 0
    serial = out.read_bytes()
    code, out = _run(tmp_path, "sweep", text, "--threads", "2")
    assert code == 0
    assert out.read_bytes() == serial
    assert len(_rows(out)) == 16


def test_monte_carlo_sweep_rows_match_price_runs(tmp_path):
    # mc and mc-disc at every k price on one draw per block, each as a price
    # run of its point alone does
    point = CONTRACT + "[grid]\nk = 2\ns_min = 3.0\n"
    code, out = _run(tmp_path, "sweep", point + (
        "[estimation]\npaths = 40000\nseed = 6\n[sweep]\nk_values = 2, 3\nmethods = mc, mc-disc\n"
    ))
    assert code == 0
    swept = _rows(out)
    assert [(row["method"], row["k"]) for row in swept] == [
        ("mc", ""), ("mc-disc", "2"), ("mc-disc", "3")
    ]
    for row in swept:
        grid = point.replace("k = 2", f"k = {row['k'] or 2}")
        code, out = _run(tmp_path, "price", grid + (
            f"[estimation]\nmethod = {row['method']}\npaths = 40000\nseed = 6\n"
        ))
        assert code == 0
        assert _rows(out) == [row]


@pytest.mark.parametrize("methods", ["", "cf-disc,"], ids=["empty", "trailing-comma"])
def test_sweep_methods_split_as_the_int_lists(tmp_path, methods):
    # an empty list is unset and falls back to the [estimation] method, and a
    # trailing comma adds no item, for methods as for k_values and p_values
    code, out = _run(tmp_path, "sweep", CONTRACT + (
        "[grid]\nk = 2\ns_min = 3.0\n[estimation]\nmethod = cf-disc\n"
        f"[sweep]\nk_values = 2, 3,\np_values =\nmethods = {methods}\n"
    ))
    assert code == 0
    assert [(row["method"], row["k"]) for row in _rows(out)] == [("cf-disc", "2"), ("cf-disc", "3")]


RESOURCES_ONLY = "[resources]\nsigma_max = 0.2\n"


def test_validate_needs_no_contract(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(RESOURCES_ONLY)
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_resources_needs_no_contract(tmp_path):
    code, out = _run(tmp_path, "resources", RESOURCES_ONLY)
    assert code == 0
    assert [row["m"] for row in _rows(out)] == ["8"]


def test_resources_truncation_bound_met_at_zero(tmp_path):
    # R = 3.6e-7 puts 2dT R below epsilon: the truncation bound holds at w = 0
    text = CONTRACT + "[resources]\nsigma_max = 0\nmu = -1e-9\nf_max = 0\n"
    code, out = _run(tmp_path, "resources", text)
    assert code == 0
    (row,) = _rows(out)
    assert float(row["w"]) == 0.0


@pytest.mark.parametrize(
    "text, w_min",
    [("sigma_max = 0.0001\n", 1159.0), ("sigma_max = 0.2\nmu = 0.3\n", 1.44)],
    ids=["sigma-max-tiny", "drift-above-volatility"],
)
def test_resources_rescaling_factor_positive_only_above_w_1(tmp_path, text, w_min):
    # R(1) <= 0: the truncation solver starts at the smallest w with R(w) > 0
    code, out = _run(tmp_path, "resources", "[resources]\n" + text)
    assert code == 0
    (row,) = _rows(out)
    assert float(row["w"]) > w_min
    assert float(row["R"]) > 0.0
    assert 0.0 < float(row["d_total"]) < math.inf


def test_resources_truncation_bound_met_at_the_positive_floor(tmp_path):
    # R(1) ~ 1e-6 is below eps/(2dT) and R(0) < 0: the bound holds down to
    # the smallest w with R(w) > 0, which lies just below 1
    text = "[resources]\nsigma_max = 0.1\nmu = 0.0999999972\nf_max = 0\n"
    code, out = _run(tmp_path, "resources", text)
    assert code == 0
    (row,) = _rows(out)
    assert 0.0 < float(row["w"]) < 1.0
    assert float(row["R"]) > 0.0
    assert 0.0 < float(row["d_total"]) < math.inf


# Prints the exit codes of the runs and, after each stage, the scipy modules loaded.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["quantum-exact", "cf-quant", "cf-disc", "mc-disc"])
@pytest.mark.parametrize("k, s_min", [(1, "40"), (2, "1e300"), (1, "1e308")])
def test_grid_without_probability_exits_1_naming_s_min(tmp_path, capsys, method, k, s_min):
    # the normal pdf underflows to 0 at every grid point (at 1e308 the grid step
    # overflows): a config error, not a warning and a nan price; at 1e300 the
    # increments would also overflow every accumulator format, but the grid is
    # checked first, so every method names s_min
    text = CONTRACT + f"[grid]\nk = {k}\ns_min = {s_min}\n[fixedpoint]\np = 2\n"
    code, out = _run(tmp_path, "price", text + f"[estimation]\nmethod = {method}\n")
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("config error: 'grid.s_min'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mu, method", [(mu, m) for mu in ("1e308", "-1e308") for m in ("mc", "mc-disc", "cf-disc")]
)
def test_extreme_drift_prices_without_warnings(tmp_path, capsys, mu, method):
    # every path autocalls at step 1 (mu = 1e308) and is paid 2 e^{-r}, or
    # crosses the barrier and ends at level 0 (mu = -1e308) and is paid the put's
    # -18 e^{-3r}: log-returns and levels overflow to +-inf, which classify each
    # path as a finite level would
    text = CONTRACT.replace("mu = 0.1274", f"mu = {mu}") + "[grid]\nk = 2\ns_min = 3.0\n"
    code, out = _run(tmp_path, "price", text + f"[estimation]\nmethod = {method}\n")
    assert code == 0 and capsys.readouterr().err == ""
    value = 2.0 * math.exp(-0.04) if mu == "1e308" else -18.0 * math.exp(-0.12)
    assert float(_rows(out)[0]["value"]) == pytest.approx(value, rel=1e-15, abs=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("notional", ["1e160", "1e307"])
def test_large_notional_prices_without_warnings(tmp_path, capsys, notional):
    # the payoffs' squared deviations (and at 1e307 their block sums) overflow
    # unless the Monte Carlo oracles reduce them at a power-of-two scale
    text = CONTRACT.replace("notional = 18.0", f"notional = {notional}")
    text += "[grid]\nk = 2\ns_min = 3.0\n"
    rows = {}
    for method in ("mc", "mc-disc", "cf-disc"):
        code, out = _run(tmp_path, "price", text + f"[estimation]\nmethod = {method}\n")
        assert code == 0 and capsys.readouterr().err == ""
        rows[method] = {key: float(_rows(out)[0][key] or "nan") for key in ("value", "stderr")}
    for method in ("mc", "mc-disc"):
        assert math.isfinite(rows[method]["value"]) and 0 < rows[method]["stderr"] < math.inf
    disc, exact = rows["mc-disc"], rows["cf-disc"]["value"]
    assert abs(disc["value"] - exact) <= 4 * disc["stderr"]


@pytest.mark.parametrize("method", ["mc", "mc-disc"])
def test_monte_carlo_price_beyond_float_range_exits_3(tmp_path, capsys, method):
    # strike 1e10 at notional 1e308: the put pays about -1e318, which no float holds
    text = CONTRACT.replace("notional = 18.0", "notional = 1e308").replace(
        "strike = 1.0", "strike = 1e10") + "[grid]\nk = 2\ns_min = 3.0\n"
    code, out = _run(tmp_path, "price", text + f"[estimation]\nmethod = {method}\npaths = 1000\n")
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err.startswith("numerical error: Monte Carlo price")


def test_cli_import_loads_neither_thread_pool_nor_difflib():
    # each is imported where it is used: --threads > 1, or an unknown key or section
    src = str(Path(qautocall.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, qautocall.cli; print(sorted({'concurrent.futures', 'difflib'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


STARTUP_PROBE = """
import json, sys

import qautocall
import qautocall.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def run(*argv):
    seen["codes"].append(qautocall.cli.main(list(argv)))


work = sys.argv[1]
seen = {"import": scipy_modules(), "codes": []}
for method in ("quantum-exact", "cf-quant", "cf-disc", "mc-disc"):
    run("price", "--config", f"{work}/{method}.ini", "--out", f"{work}/out.csv")
run("resources", "--config", f"{work}/mc.ini", "--out", f"{work}/out.csv")
run("validate", "--config", f"{work}/mc.ini")
seen["no-mc"] = scipy_modules()
run("price", "--config", f"{work}/mc.ini", "--out", f"{work}/out.csv")
seen["mc"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_command_imports_scipy(tmp_path):
    point = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n" + RESOURCES_ONLY
    for method in ("quantum-exact", "cf-quant", "cf-disc", "mc-disc", "mc"):
        (tmp_path / f"{method}.ini").write_text(
            point + f"[estimation]\nmethod = {method}\npaths = 1000\n"
        )
    src = str(Path(qautocall.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["codes"] == [0] * 7
    assert seen["import"] == []
    assert seen["no-mc"] == []
    assert seen["mc"] == []


# A fault in every section: each problem's message and their order are pinned.
EVERY_SECTION_FAULTS = """\
[gird]
k = 1
[contract]
notional = -1
dt = 1.0
steps = x
sigma = 0.2382
mu = nan
rate = 0.04
barrier = 0.7
tenor = 3
[grid]
k = 0
smin = 3.0
[fixedpoint]
p = 99
[estimation]
method = cf-quantum
epsilon = 0.5
alpha = 1
shots = 0
paths = 0
seed = -1
[sweep]
p_values = 2, 99
k_values = 0 1
methods = mc, qmc, cf-disc
[resources]
steps = 0
assets = 0
epsilon = 0
layers = -1
gaussian_qubits = 0
binaries = -1
m_values = 8 0
sigma_max = -1
mu = inf
dt = 0
notional = 0
strike = 0
f_max = -1
accumulator = 4
[sweeps]
"""

METHOD_OPTIONS = "quantum-exact, quantum-iqae, mc, mc-disc, cf-disc, cf-quant"

EVERY_SECTION_ERRORS = f"""\
unknown section '[gird]' (did you mean '[grid]'?)
unknown section '[sweeps]' (did you mean '[sweep]'?)
unknown key 'contract.tenor'
'contract.notional' must be positive, got '-1'
invalid value for 'contract.steps': 'x'
'contract.mu' must be finite, got 'nan'
missing required key 'contract.strike'
unknown key 'grid.smin' (did you mean 's_min'?)
'grid.k' must be in [1, 62], got '0'
'fixedpoint.p' must be in [0, 62], got '99'
'estimation.method' must be one of ('quantum-exact', 'quantum-iqae', 'mc', 'mc-disc', \
'cf-disc', 'cf-quant'), got 'cf-quantum'
'estimation.epsilon' must be in (0, 0.5), got '0.5'
'estimation.alpha' must be in (0, 1), got '1'
'estimation.shots' must be in [1, 2**63 - 1], got '0'
'estimation.paths' must be in [1, 2**63 - 1], got '0'
'estimation.seed' must be in [0, 2**63 - 1], got '-1'
'sweep.p_values' must all be in [0, 62], got '2, 99'
'sweep.k_values' must all be in [1, 62], got '0 1'
unknown sweep method 'qmc'; options: {METHOD_OPTIONS}
unknown key 'resources.accumulator'
'resources.steps' must be in [1, 2**63 - 1], got '0'
'resources.assets' must be in [1, 2**63 - 1], got '0'
'resources.epsilon' must be in (0, 1), got '0'
'resources.layers' must be in [0, 2**63 - 1], got '-1'
'resources.gaussian_qubits' must be in [1, 2**63 - 1], got '0'
'resources.binaries' must be in [0, 2**63 - 1], got '-1'
'resources.m_values' must all be in [1, 2**63 - 1], got '8 0'
'resources.sigma_max' must be non-negative, got '-1'
'resources.mu' must be finite, got 'inf'
'resources.dt' must be positive, got '0'
'resources.notional' must be positive, got '0'
'resources.strike' must be positive, got '0'
'resources.f_max' must be non-negative, got '-1'
"""

FLOOR_FAULTS = "[resources]\nsigma_max = 0\nsteps = 1.5\n[sweep]\nmethods = quantum\n"

FLOOR_ERRORS = f"""\
unknown sweep method 'quantum'; options: {METHOD_OPTIONS}
invalid value for 'resources.steps': '1.5'
'resources.sigma_max' = 0 with 'resources.mu', 'resources.dt' and 'resources.steps' fix the \
terminal return at exp(2.548), not below 'resources.strike' + 'resources.f_max' / \
'resources.notional' = 1.25642, so the payoff rescaling factor is never positive
"""


@pytest.mark.parametrize(
    "text, errors",
    [
        (EVERY_SECTION_FAULTS, EVERY_SECTION_ERRORS),
        (FLOOR_FAULTS, FLOOR_ERRORS),
        (
            CONTRACT.replace("1:1.1:2.0", "1:0:2.0") + "[grid]\nk = 1\ns_min = 3.0\n",
            "contract: binary strike must be positive, got 0.0\n",
        ),
    ],
    ids=["every-section", "rescaling-floor", "contract-construction"],
)
def test_config_problems_reported_in_full_and_in_order(tmp_path, capsys, text, errors):
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert main(["validate", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"config error: {line}\n" for line in errors.splitlines())


@pytest.mark.parametrize(
    "text, digest",
    [
        ("[resources]\n", "b821be8fe82a5dced2862b06a58b2e991ce3d1eb49c31ffb6f3c5af16cf0849d"),
        (
            RESOURCES_ONLY + "m_values = 4 8 16\n",
            "f93a806715f3992117866f3a93cc129815a523743672c86cbfed8fa544660883",
        ),
    ],
    ids=["defaults", "three-widths"],
)
def test_resources_csv_digest(tmp_path, text, digest):
    import hashlib

    code, out = _run(tmp_path, "resources", text)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


EVERY_KEY = CONTRACT + """\
[grid]
k = 2
s_min = 3.0
[fixedpoint]
p = 3
[estimation]
method = cf-quant
epsilon = 0.01
alpha = 0.05
shots = 50
paths = 1000
seed = 3
[sweep]
p_values = 2, 3
k_values = 1 2
methods = mc, cf-disc, cf-quant
[resources]
steps = 3
assets = 1
epsilon = 0.001
layers = 1
gaussian_qubits = 3
binaries = 2
m_values = 6 8
sigma_max = 0.2382
mu = 0.1274
dt = 1.0
notional = 18.0
strike = 1.0
f_max = 4.6
"""


def test_config_setting_every_key_validates(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(EVERY_KEY)
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr() == ("OK\n", "")


BEYOND_FLOAT_RANGE = CONTRACT.replace("notional = 18.0", "notional = 1e308").replace(
    "strike = 1.0", "strike = 1e10") + "[grid]\nk = 2\ns_min = 3.0\n[fixedpoint]\np = 2\n"


@pytest.mark.filterwarnings("error")
def test_cf_disc_price_beyond_float_range_exits_3(tmp_path, capsys):
    # the put pays about -1e318: priced at a power-of-two scale, then refused
    code, out = _run(tmp_path, "price", BEYOND_FLOAT_RANGE + "[estimation]\nmethod = cf-disc\n")
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == "numerical error: closed-form price is not finite: -inf\n"


@pytest.mark.filterwarnings("error")
def test_put_discounted_below_float_range_prices_without_warnings(tmp_path, capsys):
    # at rate 300 the undiscounted put, about -1e318, overflows and its
    # discount e^-900 underflows to 0, while the discounted put, about
    # -1e-73, is in range: every method prices it
    text = BEYOND_FLOAT_RANGE.replace("rate = 0.04", "rate = 300")
    fine = text.replace("k = 2", "k = 10").replace("s_min = 3.0", "s_min = 6.0")
    rows = {}
    runs = [(method, method, text) for method in ("cf-quant", "quantum-exact", "cf-disc", "mc-disc", "mc")]
    for name, method, config in runs + [("fine", "cf-disc", fine)]:
        code, out = _run(tmp_path, "price", config + f"[estimation]\nmethod = {method}\n")
        assert code == 0 and capsys.readouterr().err == ""
        rows[name] = {key: float(_rows(out)[0][key] or "nan") for key in ("value", "stderr")}
        out.unlink()
    exact = rows["cf-disc"]["value"]
    # the expectation over the 64 grid paths in 50-digit arithmetic (mpmath)
    assert exact == pytest.approx(-2.1143984224387411e-75, rel=1e-12, abs=0)
    # the put pays about -strike * notional, so quantizing the level moves
    # the price by about level / strike
    for method in ("cf-quant", "quantum-exact"):
        assert rows[method]["value"] == pytest.approx(exact, rel=1e-9, abs=0)
    # mc draws continuous shocks: compared with the closed form on a fine grid
    for method, reference in (("mc-disc", exact), ("mc", rows["fine"]["value"])):
        assert abs(rows[method]["value"] - reference) <= 4 * rows[method]["stderr"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["cf-quant", "quantum-exact"])
def test_put_floor_beyond_float_range_exits_1_naming_it(tmp_path, capsys, method):
    code, out = _run(tmp_path, "price", BEYOND_FLOAT_RANGE + f"[estimation]\nmethod = {method}\n")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "mapping error: the put floor (r_t_min - strike) * notional * e^(-rT) = -inf "
        "is not finite\n"
    )
