"""Every name that mvmodal or one of its modules lists in __all__ resolves, and the
package runs on the standard library alone."""
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mvmodal

SRC = str(Path(mvmodal.__file__).resolve().parent.parent)
MODULES = ["mvmodal", *(f"mvmodal.{m.name}" for m in pkgutil.iter_modules(mvmodal.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_core_runs_on_the_standard_library_alone():
    """Import mvmodal and answer one query with every non-stdlib import refused."""
    script = textwrap.dedent("""\
        import sys
        class StdlibOnly:
            def find_spec(self, name, path=None, target=None):
                top = name.partition(".")[0]
                if top != "mvmodal" and top not in sys.stdlib_module_names:
                    raise ImportError(f"{name} is outside the standard library")
        sys.meta_path.insert(0, StdlibOnly())
        import mvmodal, mvmodal.cli
        sys.exit(mvmodal.cli.main(["valid", "p -> p"]))
        """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("VALID")
