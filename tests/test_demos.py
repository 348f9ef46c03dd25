"""Every narrative demo, and the README's library quick start, runs to
completion against the package sources."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd) -> subprocess.CompletedProcess:
    """Run a Python script in cwd with an absolute path to the sources, since
    demos write CSVs to the working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = run_script(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    done = run_script(script, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "bound_value" in done.stdout
