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
    code = main([command, "--config", str(config), "--out", str(out), *extra])
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
            "'estimation.seed' must be >= 0",
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
        assert f"config error: 'resources.{key}' must be >= " in err
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
    # the payoffs are reduced block by block, so no path count is refused:
    # more paths than 8-byte payoffs fit, within a block and across blocks
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[estimation]\nmethod = {}\npaths = {}\n"
    fake_memory(4096 * 8)
    for paths in (4097, 2**16 + 1):
        code, out = _run(tmp_path, "price", text.format(method, paths))
        assert code == 0
        assert _rows(out)[0]["paths_or_shots"] == str(paths)
        out.unlink()


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
    text = CONTRACT + (
        "[grid]\nk = 2\ns_min = 3.0\n[fixedpoint]\np = 2\n"
        "[estimation]\npaths = 20000\nseed = 3\n"
        "[sweep]\nk_values = 2, 3, 4\np_values = 2, 3, 4\nmethods = cf-quant, cf-disc, mc-disc\n"
    )
    code, out = _run(tmp_path, "sweep", text, "--threads", "1")
    assert code == 0
    serial = out.read_bytes()
    code, out = _run(tmp_path, "sweep", text, "--threads", "2")
    assert code == 0
    assert out.read_bytes() == serial
    assert len(_rows(out)) == 15


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
