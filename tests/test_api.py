"""The public names resolve, and the README's library example runs."""

import os
import re
import subprocess
import sys

import pytest

import gpchain
from gpchain import coeffs, fock, opalg

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


@pytest.mark.parametrize("module", [gpchain, opalg, coeffs, fock],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_import_loads_no_submodule():
    # gpchain resolves its exported names on first use (PEP 562)
    code = ("import sys, gpchain\n"
            "print([m for m in sys.modules if m.startswith('gpchain.')],"
            " 'numpy' in sys.modules)\n"
            "print([n for n in gpchain.__all__ if n not in dir(gpchain)])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchain.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["[] False", "[]"]
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        gpchain.nothing


def test_readme_library_quickstart_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quickstart", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert "phi(5)" in capsys.readouterr().out
    times, states = scope["times"], scope["states"]
    assert times[-1] == 2.0
    assert states[-1].shape == (1, 32)
