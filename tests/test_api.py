"""The public names resolve, and the README's library example runs."""

import os
import re

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
