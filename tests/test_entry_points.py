"""Entry points that code outside the package relies on: the names the
benchmark tracer wraps, and the demo scripts, the dataset builder among them."""

import os
import shutil
import subprocess
import sys

import pytest

from helpers import DEMO, REPO


def test_tracer_bindings_install_and_restore(monkeypatch):
    # the traced benchmark looks every wrapped name up in its owner's __dict__;
    # a name that is removed or renamed would make `--trace 1` fail with KeyError
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import spans

    sites = spans.targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in sites]
    tracer = spans.Tracer()
    try:
        tracer.install(sites)
        assert all(owner.__dict__[attr] is not fn for (owner, attr, _, _), fn in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr, _, _), fn in zip(sites, originals))


def _env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run_demo(root, script: str) -> subprocess.CompletedProcess:
    """Run a copy of demos/<script> at root/demos, where it reads and writes root/data/demo."""
    (root / "demos").mkdir()
    shutil.copy(REPO / "demos" / script, root / "demos" / script)
    run = subprocess.run([sys.executable, str(root / "demos" / script)], cwd=root, env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


@pytest.mark.parametrize("script", ["repair_walkthrough.py", "weight_fusion.py", "cloud_grading.py"])
def test_demo_script_runs(tmp_path, script):
    # copied with the demo data in the same layout, so the scripts find it and
    # write their output under tmp_path
    shutil.copytree(DEMO, tmp_path / "data" / "demo")
    assert _run_demo(tmp_path, script).stdout


def test_demo_dataset_builder_reproduces_the_shipped_data(tmp_path):
    # the builder writes every file of data/demo from its fixed seed, byte for byte
    _run_demo(tmp_path, "build_demo_dataset.py")
    built = tmp_path / "data" / "demo"

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(built) == files(DEMO)
    for rel in files(DEMO):
        assert (built / rel).read_bytes() == (DEMO / rel).read_bytes(), rel


# stdlib and third-party modules that importing the CLI and the plot module adds nothing
# for: the records are NamedTuples, not dataclasses; judgment fractions parse without
# `fractions` (and its `decimal`); and the report digest and the droplet writer import
# hashlib and orjson when they run
UNUSED_AT_IMPORT = ("dataclasses", "fractions", "decimal", "hashlib", "orjson")


def test_import_and_the_reading_commands_leave_unused_modules_unloaded():
    # numpy is imported first: numpy 1.24 loads numpy.random on import, and with it hmac
    # and hashlib, so only what cloudmcdm adds on top counts. The commands that write no
    # file (validate, weights) take no digest and write no droplets.
    code = ("import sys, contextlib, io, numpy\n"
            "before = set(sys.modules)\n"
            "import cloudmcdm.cli as cli, cloudmcdm.svgplot\n"
            f"loaded = sorted(set({UNUSED_AT_IMPORT!r}) & (set(sys.modules) - before))\n"
            "assert not loaded, ('import', loaded)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for cmd in ('validate', 'weights'):\n"
            f"        assert cli.main([cmd, {str(DEMO / 'config_before.json')!r}]) == 0\n"
            "        loaded = sorted({'hashlib', 'orjson'} & (set(sys.modules) - before))\n"
            "        assert not loaded, (cmd, loaded)\n")
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_drawing_a_diagram_loads_no_orjson():
    # the diagram's coordinates are written from digit tables, so only report.json and
    # droplets.csv need orjson
    code = ("import sys\n"
            "from cloudmcdm.cloud import DEFAULT_SCHEME, CloudParams\n"
            "from cloudmcdm.svgplot import cloud_diagram\n"
            "svg = cloud_diagram(CloudParams(83.5, 2.0, 0.2), DEFAULT_SCHEME, seed=1)\n"
            "assert svg.endswith(b'</svg>\\n') and svg.count(b'<circle ') == 2000 + 4 * 1200, len(svg)\n"
            "assert 'orjson' not in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
