"""The array code calls no numpy transcendental or power.

numpy's exp, sin and cos differ from libm's, which CPython's math module
calls, in the last bit (see the ``_arith`` docstring). closedform,
scattering's lanes and _arith take those per element through the math
module, and square by the exact product x * x, so every array element
equals the scalar arithmetic bit for bit. This test keeps it that way,
also where an expression runs only once per call and a numpy call would
look harmless.
It still forbids numpy's power and square, so that each square stays the
plain product that the frozen oracle spells out.
"""

import ast
import pathlib
import re

import tunnelclock

NUMPY_NAMES = {"np", "numpy"}
FORBIDDEN = re.compile(
    r"(exp|expm1|exp2|log.*|sin|cos|tan|arcsin|arccos|arctan.*|sinh|cosh|tanh"
    r"|power|float_power|square)"
)
MODULES = ("closedform.py", "_arith.py", "scattering.py")


def _numpy_transcendentals(source: str) -> list[str]:
    """Each forbidden numpy name that source refers to, as np.<name> or
    through a from-import of numpy, with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in NUMPY_NAMES and FORBIDDEN.fullmatch(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if FORBIDDEN.fullmatch(alias.name)]
    return found


def test_closed_form_modules_take_no_numpy_transcendental():
    package = pathlib.Path(tunnelclock.__file__).parent
    for name in MODULES:
        found = _numpy_transcendentals((package / name).read_text(encoding="utf-8"))
        assert found == [], (name, found)


def test_the_guard_sees_each_way_of_naming_one():
    source = (
        "import numpy as np\n"
        "from numpy import arctan2, sqrt\n"
        "y = np.exp(x) + np.sqrt(x)\n"
        "z = _each(np.log1p, x)\n"
        "w = numpy.square(x) + np.hypot(x, x) + np.abs(x)\n"
    )
    assert sorted(_numpy_transcendentals(source)) == [
        "2: from numpy import arctan2", "3: np.exp", "4: np.log1p", "5: numpy.square",
    ]
