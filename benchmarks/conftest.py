"""Settings shared by the pytest-benchmark files in this directory."""


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Store each benchmark's statistics without its per-round timings,
    ``stats["data"]``: the quantiles stay, and the stored file stays small."""
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
