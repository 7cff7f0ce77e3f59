"""Entry points that code outside the package relies on: the names the
benchmark tracer wraps, and the demo scripts."""

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


@pytest.mark.parametrize("script", ["repair_walkthrough.py", "weight_fusion.py", "cloud_grading.py"])
def test_demo_script_runs(tmp_path, script):
    # copied with the demo data in the same layout, so the scripts find it and
    # write their output under tmp_path
    (tmp_path / "demos").mkdir()
    shutil.copy(REPO / "demos" / script, tmp_path / "demos" / script)
    shutil.copytree(DEMO, tmp_path / "data" / "demo")
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, str(tmp_path / "demos" / script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_orjson_loads_only_with_the_droplet_writer():
    # orjson formats droplets.csv; importing the CLI and the commands that write
    # no droplets (validate, weights) leave it unloaded
    code = ("import sys, contextlib, io\n"
            "import cloudmcdm.cli as cli\n"
            "assert 'orjson' not in sys.modules, 'import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for cmd in ('validate', 'weights'):\n"
            f"        assert cli.main([cmd, {str(DEMO / 'config_before.json')!r}]) == 0\n"
            "        assert 'orjson' not in sys.modules, cmd\n")
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
