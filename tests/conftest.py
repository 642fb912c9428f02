import pytest

from qautocall import AutocallableContract, BinaryOption, errors


@pytest.fixture
def fake_memory(monkeypatch):
    """Setter for the physical memory, in bytes, that the circuit builder and
    the closed forms are sized against (``errors.physical_memory``)."""

    def set_bytes(num_bytes):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": num_bytes // 4096}
        monkeypatch.setattr(errors.os, "sysconf", pages.__getitem__)

    return set_bytes


@pytest.fixture(scope="session")
def table2():
    """The reference single-asset contract used throughout the experiments."""
    return AutocallableContract(
        notional=18.0,
        dt=1.0,
        steps=3,
        mu=0.1274,
        sigma=0.2382,
        rate=0.04,
        barrier=0.7,
        strike=1.0,
        binaries=(BinaryOption(1, 1.1, 2.0), BinaryOption(2, 1.1, 5.0)),
    )


@pytest.fixture(scope="session")
def table2_flat(table2):
    """Same contract with zero volatility (deterministic path)."""
    return AutocallableContract(
        notional=table2.notional,
        dt=table2.dt,
        steps=table2.steps,
        mu=table2.mu,
        sigma=0.0,
        rate=table2.rate,
        barrier=table2.barrier,
        strike=table2.strike,
        binaries=table2.binaries,
    )
