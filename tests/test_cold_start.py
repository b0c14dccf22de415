"""A fresh interpreter loads only what it uses.  `import equibundle`
runs no library module until a public name is read, and each CLI
subcommand imports the library modules it calls and no others.  The
import checks run in subprocesses, because this process has every
module loaded already."""

import json
import subprocess
import sys

import pytest

import equibundle
from equibundle import action_model, congruence, cyclotomic, exact_arith, moduli, series
from oracles import ROOT, src_env

D = "demos/documents"
LIBRARY = (exact_arith, cyclotomic, series, action_model, congruence, moduli)
SURFACE = [name for mod in LIBRARY for name in mod.__all__]


def _fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter from the repository root; it
    leaves its result in `out`.  Returns `out` and, under "loaded", the
    `equibundle` submodules that ended up imported."""
    script = (
        "import json, sys\nout = {}\n" + code + "\n"
        "out['loaded'] = sorted(n.partition('.')[2] for n in sys.modules if n.startswith('equibundle.'))\n"
        "print(json.dumps(out))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SUBCOMMANDS = {
    "search": ["search", "--p", "7", "--points", "3", "--sign", "1", "--euler", "3", "--b2", "1"],
    "check": ["check", f"{D}/triple_cp2bar.json"],
    "check-su2": ["check", f"{D}/s4_su2.json", "--mode", "su2"],
    "solve": ["solve", f"{D}/cp2_solve_m.json"],
    "sum": ["sum", f"{D}/cp2bar_su2_m0.json", f"{D}/cp2bar_su2_m0.json", "--spheres", "0", "0"],
    "expand": ["expand", "--kind", "point", "--a", "1", "--b", "2", "--p", "5"],
    "dimension": ["dimension", f"{D}/triple_cp2bar_lift1.json"],
    "gsign": ["gsign", f"{D}/triple_cp2bar.json"],
}

# subcommand -> (the modules it must load, the modules it must not)
LOADS = {
    "search": ((), ("moduli", "series")),
    "check": ((), ("moduli", "series")),
    "check-su2": ((), ("moduli", "series")),
    "solve": ((), ("moduli", "series")),
    "sum": ((), ("moduli", "series")),
    "expand": (("series",), ("moduli",)),
    "dimension": (("moduli",), ("series",)),
    "gsign": ((), ("series",)),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_a_subcommand_loads_only_the_modules_it_uses(name):
    got = _fresh(
        "import contextlib, io\n"
        "from equibundle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    out['code'] = main({SUBCOMMANDS[name]!r})"
    )
    assert got["code"] == 0
    loads, skips = LOADS[name]
    assert {"cli", "action_model", "congruence", "exact_arith", *loads} <= set(got["loaded"])
    assert [m for m in skips if m in got["loaded"]] == []


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_a_subcommand_loads_neither_dataclasses_inspect_nor_typing(name):
    # compared with the modules loaded before the import, since a site
    # module may load any of them at start-up
    got = _fresh(
        "import contextlib, io\n"
        "before = set(sys.modules)\n"
        "from equibundle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    out['code'] = main({SUBCOMMANDS[name]!r})\n"
        "out['added'] = sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before))"
    )
    assert got["code"] == 0
    assert got["added"] == []


def test_a_bare_import_loads_no_module_until_a_public_name_is_read():
    got = _fresh(
        "import equibundle\n"
        "out['version'] = equibundle.__version__\n"
        "out['before'] = sorted(n for n in sys.modules if n.startswith('equibundle.'))\n"
        "equibundle.dim_invariant_moduli"
    )
    assert got["version"] == equibundle.__version__
    assert got["before"] == []
    assert {mod.__name__.partition(".")[2] for mod in LIBRARY} <= set(got["loaded"])
    assert "cli" not in got["loaded"]


def test_star_import_binds_the_modules_all_in_order():
    namespace = {}
    exec("from equibundle import *", namespace)
    assert [name for name in namespace if name != "__builtins__"] == SURFACE
    assert equibundle.__all__ == SURFACE


def test_dir_of_a_fresh_package_lists_the_whole_surface():
    got = _fresh("import equibundle\nout['dir'] = dir(equibundle)")
    assert [name for name in SURFACE if name not in got["dir"]] == []


def test_an_unknown_name_is_still_an_attribute_error():
    assert not hasattr(equibundle, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        equibundle.no_such_name
