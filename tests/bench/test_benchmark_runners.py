"""The standalone benchmark runners leave the checkout as they found it.

Run as documented, a runner prints its table and exits; a JSON file is
written only where ``--output`` names one.  The committed ``BENCH_*.json``
files are fixtures of the store tests, so a runner that drops an extra one
into the repository root breaks those tests.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_runner(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documented_run_writes_nothing_into_the_repo_root():
    before = sorted(REPO_ROOT.glob("BENCH_*"))
    assert _load_runner("bench_obs_overhead").main(["--tiny"]) == 0
    assert sorted(REPO_ROOT.glob("BENCH_*")) == before


def test_output_writes_the_json_where_asked(tmp_path):
    output = tmp_path / "overhead.json"
    assert _load_runner("bench_obs_overhead").main(["--tiny", "--output", str(output)]) == 0
    assert output.is_file()
