import csv

import pytest

from qautocall.cli import main

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
            "int_bits >= 2",
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
            "largest usable p is 61",
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
        ("resources", CONTRACT + "[resources]\nsigma_max = 0.0001\n", "'resources.sigma_max'"),
    ],
    ids=[
        "k-values-without-grid", "int-bits-too-small", "p-too-large", "sweep-p-too-large",
        "increment-overflows-probe", "sweep-k-zero", "resources-steps-zero",
        "resources-epsilon-above-1", "resources-m-zero", "resources-dt-zero",
        "resources-notional-negative", "resources-strike-negative",
        "resources-sigma-max-negative", "resources-f-max-negative",
        "resources-sigma-max-zero", "resources-sigma-max-tiny",
    ],
)
def test_config_faults_exit_1_with_message(tmp_path, capsys, command, text, message):
    code, out = _run(tmp_path, command, text)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert message in err
    assert not out.exists()


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
    fake_memory(32 * 2**18)
    text = CONTRACT + "[grid]\nk = 1\ns_min = 3.0\n[fixedpoint]\np = 2\n" \
        "[estimation]\nmethod = quantum-exact\n"
    code, out = _run(tmp_path, "price", text)
    assert code == 2
    assert "19 qubits, 18 fit in physical memory" in capsys.readouterr().err
    assert not out.exists()


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
