"""Import-order and import-boundary regression tests.

Circular imports only bite for *some* entry points, so every module of
the package is imported first in a fresh interpreter — the way an example
script or a downstream user would. Package ``__init__``s export only the
benchmark API, so the second half pins which modules the lean entry
points load.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = ("repro",) + tuple(
    sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
)

#: Imports every module named on stdin, each in a forked child of one
#: interpreter that has imported nothing from ``repro``, and prints
#: ``{module: traceback or ""}``. The children share a bytecode cache in a
#: scratch directory, so each module compiles once, not once per child.
_FORK_DRIVER = r"""
import importlib, json, os, sys, tempfile, traceback
import numpy  # noqa: F401  (every module needs it; load it once)

results = {}
with tempfile.TemporaryDirectory() as cache:
    sys.dont_write_bytecode = False
    sys.pycache_prefix = cache
    for name in sys.stdin.read().split():
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                importlib.import_module(name)
                message = ""
            except BaseException:
                message = traceback.format_exc()
            os.write(write_end, message.encode())
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            message = pipe.read().decode()
        _, status = os.waitpid(pid, 0)
        if status and not message:
            message = f"child exited with status {status}"
        results[name] = message
print(json.dumps(results))
"""


def _loaded_by(statement: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    code = (
        f"{statement}\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.fixture(scope="module")
def fresh_imports():
    result = subprocess.run(
        [sys.executable, "-c", _FORK_DRIVER],
        input="\n".join(MODULES),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_fresh_import(module, fresh_imports):
    """Each module imports cleanly as the first touch of the library."""
    assert fresh_imports[module] == ""


def test_walk_finds_every_source_file():
    root = os.path.dirname(repro.__file__)
    files = sum(
        name.endswith(".py") for _, _, names in os.walk(root) for name in names
    )
    assert len(MODULES) == files


@pytest.mark.parametrize(
    "statement, forbidden",
    [
        (
            "from repro.dse import explore, exhaustive_search",
            ("repro.shard", "repro.dse.partition", "repro.hw.faults",
             "repro.hw.emulation"),
        ),
        ("import repro.cli", ("repro.serve", "repro.dse")),
    ],
)
def test_entry_point_loads_no_unused_subsystem(statement, forbidden):
    loaded = _loaded_by(statement)
    leaked = sorted(
        m for m in loaded for f in forbidden if m == f or m.startswith(f + ".")
    )
    assert leaked == []
