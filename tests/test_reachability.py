"""Every library function and parameter is used by the library's traffic.

The traffic is ``formalballs law-suite --seed 0``, every ``formalballs``
line of the README's command examples, the five demos, and the first
period of each benchmark workload at seed 1 (``setup(1)``, then each
operation of ``period(1, 0)`` run and checked as ``bench/run.py`` does).
The scan records the code object of every call under ``sys.settrace`` and
lists each module-level function, method, staticmethod and property
defined in ``src/formalballs/*.py`` that was never called.  That list must
equal ``ALLOWED``: a function outside it is either reached or deleted.

The same pass reads the arguments of each call to such a function that has
defaulted parameters, and lists each defaulted parameter that never arrives
with a value other than its default (a value counts as the default when it
``is`` the default, or has the same type and is ``==``).  That list must
equal ``FIXED``: a parameter outside it is either varied or a constant.
Dataclass fields are not scanned, because their ``__init__`` is generated.

The scan runs in a subprocess (``python tests/test_reachability.py``), so
the trace hook and the ``bench/`` imports stay out of the test process.
"""

import contextlib
import functools
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "carriers.MetricAxiomError.__init__": "failure path: a table breaks a metric axiom",
    "carriers.MetricCarrier.__repr__": "debugging aid",
    "carriers.gaussian_rationals": "bench/tracing.py wraps it by name",
    "cli._help": "prints the usage text for -h/--help only; test_cli_reader runs it",
    "completion.CompletionPoint.to_json": "failure path: a round-trip violation",
    "gelfand._failure": "failure path: a failed admissibility witness",
    "reals.add_c": "public API: the complex sum, exported with mul_c and conj_c as the "
                   "ring operations of C; the library sums its constant complex values "
                   "as integer rows, so only callers outside it reach add_c",
    "upper.UpperReal.__repr__": "debugging aid",
}

FIXED = {
    "lawsuite.enumerate_basic_opens.grid": "test_gelfand's n=3 case sets (-1, 0, 1)",
    "lawsuite.law_function_locale.effort": "set by the CLI's --effort",
    "lawsuite.law_function_locale.rt_effort": "acceptance criterion 6 sets it",
    "lawsuite.run_law_suite.effort": "set by the CLI's --effort",
    "lawsuite.run_law_suite.seed": "set by the CLI's --seed",
    "maps.extend_by_density.sample_pairs":
        "the only way a test reaches the modulus certificate check",
}


def _defined_code(modules):
    """Code object -> ("module.qualname", {parameter: default}) for each
    function the modules define."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]

        def add(fn):
            code = getattr(fn, "__code__", None)
            if code is not None and code.co_filename == mod.__file__:
                params = inspect.signature(fn).parameters.values()
                defaults = {p.name: p.default for p in params
                            if p.default is not p.empty}
                found[code] = (f"{short}.{code.co_qualname}", defaults)

        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        add(attr.__func__)
                    elif isinstance(attr, property):
                        for fn in (attr.fget, attr.fset, attr.fdel):
                            add(fn)
                    else:
                        add(attr)
            else:
                add(obj)
    return found


def _readme_commands():
    """argv lists of the ``formalballs`` lines in the README's code blocks."""
    import shlex

    commands, in_block = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("formalballs "):
            commands.append(shlex.split(line)[1:])
    return commands


def _run_traffic():
    import runpy

    from formalballs import cli

    commands = [["law-suite", "--seed", "0"]]
    commands += [argv for argv in _readme_commands() if argv not in commands]
    for argv in commands:
        cli.main(argv)
    for demo in sorted((ROOT / "demos").glob("0*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    import workloads

    for wl in workloads.WORKLOADS.values():
        ctx = wl.setup(1)
        for spec in wl.period(1, 0):
            try:
                answer = wl.run(ctx, spec)
                wl.check(spec, answer)
            except Exception:  # failed operations are traffic too
                pass


def scan():
    """The library functions that the traffic never calls, and the defaulted
    parameters that it never sets to another value."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import importlib
    import pkgutil

    import formalballs

    modules = [
        importlib.import_module(f"formalballs.{info.name}")
        for info in pkgutil.iter_modules(formalballs.__path__)
    ]
    defined = _defined_code(modules)
    called = set()
    # code -> the defaulted parameters not yet seen with another value
    fixed = {code: dict(defaults) for code, (_, defaults) in defined.items()}

    def trace(frame, _event, _arg, add=called.add, pending=fixed.get):
        code = frame.f_code
        add(code)  # returns None: no line events inside the frame
        defaults = pending(code)
        if defaults:
            args = frame.f_locals
            for name, default in list(defaults.items()):
                value = args[name]
                if value is not default and (
                    type(value) is not type(default) or value != default
                ):
                    del defaults[name]

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _run_traffic()
    finally:
        sys.settrace(None)
    return {
        "unreached": sorted(
            name for code, (name, _) in defined.items() if code not in called
        ),
        "fixed": sorted(
            f"{defined[code][0]}.{param}"
            for code, defaults in fixed.items()
            for param in defaults
        ),
    }


@functools.cache
def _scan_in_subprocess():
    done = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_library_function_is_reached_or_allowed():
    assert _scan_in_subprocess()["unreached"] == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_defaulted_parameter_is_varied_or_allowed():
    assert _scan_in_subprocess()["fixed"] == sorted(FIXED)
    assert all(reason.strip() for reason in FIXED.values())


if __name__ == "__main__":
    print(json.dumps(scan()))
