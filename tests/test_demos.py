"""Every narrative script under demos/, and README's Quick start, runs to completion.

So does an import of every module of the package, which loads nothing
outside the standard library but numpy. Each runs in its own interpreter in
an empty temporary working directory, and must leave it empty: a demo keeps
what it writes in a temporary directory of its own. RuntimeWarnings are
errors, as in the rest of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def check_runs(tmp_path, *args):
    """Run python with `args` in the empty tmp_path: it exits 0, prints, and
    writes nothing. Returns what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    check_runs(tmp_path, str(demo))


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "tf.fit" in code
    check_runs(tmp_path, "-c", code)


def test_package_imports_only_the_standard_library_and_numpy(tmp_path):
    # The runtime depends on numpy alone. What the interpreter loaded before
    # discwave (a site hook such as an editable install's finder) does not count.
    modules = sorted(p.stem for p in (ROOT / "src" / "discwave").glob("*.py"))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    __import__('discwave.' + name)\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    assert check_runs(tmp_path, "-c", code) == "['discwave', 'numpy']\n"
