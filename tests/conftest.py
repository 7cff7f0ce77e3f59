import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # make helpers importable

from helpers import DEMO, REPO  # noqa: E402

from cloudmcdm.pipeline import run_pipeline  # noqa: E402


@pytest.fixture(scope="session")
def report_before():
    return run_pipeline(DEMO / "config_before.json")


@pytest.fixture(scope="session")
def report_after():
    return run_pipeline(DEMO / "config_after.json")


@pytest.fixture(scope="session")
def scaled_run(tmp_path_factory):
    """`scaled_run(seed)` -> (config, report, out dir): the inputs that
    perfbench/scaled_inputs.py generates for `seed`, evaluated once with their
    artifacts. Each seed is made once per session; a test that edits the inputs
    copies them first."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import scaled_inputs

    runs = {}

    def run(seed: int):
        if seed not in runs:
            root = tmp_path_factory.mktemp(f"scaled{seed}")
            scaled_inputs.generate(seed, root / "in")
            config = root / "in" / "config.json"
            runs[seed] = config, run_pipeline(config, out_dir=root / "out"), root / "out"
        return runs[seed]

    return run
