"""Every demo script and every README Python block runs to completion
against the in-tree package, and every README JSON block is a config the
loader takes."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from polystab.config import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text("utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
README_CONFIGS = re.findall(r"^```json\n(.*?)^```", README, re.S | re.M)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # run from a scratch directory: a demo may write its figure to the cwd
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_demos_found():
    assert DEMOS  # an empty glob would parametrize no test at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_found():
    assert README_BLOCKS  # the Quick start at least


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_exits_zero(code, tmp_path):
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_configs_found():
    assert README_CONFIGS  # the CLI example config at least


@pytest.mark.parametrize("text", README_CONFIGS,
                         ids=[f"config{i}" for i in range(len(README_CONFIGS))])
def test_readme_config_loads(text):
    # the docs keep no key the loader refuses
    ExperimentConfig.from_dict(json.loads(text))
