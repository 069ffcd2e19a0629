"""Every public name and method in ``src/repro`` is reached by shipped code.

A public top-level ``def``/``class`` must be referenced — as a ``Name``,
an ``Attribute`` or an import alias, not in a docstring — somewhere in
``src/`` or ``perfbench/``: the program and the benchmark that times it.
A public method or property of a top-level class must appear there as an
``Attribute``. A name or method only tests, examples or the extension
benches under ``benchmarks/`` call is deleted, not kept; an example or a
bench shows what the program does, so it may not be the one reason a name
exists. The same holds for options: a parameter that shipped code leaves
at one value is that value, written as a constant. The exceptions are
listed in :data:`ALLOWED` and :data:`ALLOWED_METHODS`, each with the
reason it stays: the fast path it is the oracle of, the invariant it
checks, the fault campaign it drives, or the file format it reads.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("src", "perfbench")

#: Names only tests reach, and why each one stays.
ALLOWED = {
    "encode_kernel": "one-kernel view of encode_layer; the per-kernel oracle of the array encoder",
    "decode_kernel": "inverse of encode_kernel; checks the per-kernel WT-Buffer/Q-Table format",
    "pack_index": "WT-Buffer index format that the array encoder and the buffer model share",
    "expected_distinct_values": "closed form the synthetic distinct-value draws are checked against",
    "expected_distinct": "closed form the codebook occupancy draws are checked against",
    "load_model": "reads the blob that `abm-spconv encode --out` writes",
    "run_measured_from_encoding": "oracle of Table 1's statistics path: counts from real encodings",
    "emulate_layer": "oracle of the CU datapath model (docs/architecture.md)",
    "random_fault": "drives the fault-injection campaign on encoded streams",
    "abm_power_analytic": "per-point oracle of the DSE grid's power and GOP/s-per-watt arrays",
    "registered_caches": "the CI cache-family check reads the registry through it",
    "unregister_cache": "inverse of register_cache; keeps the pinned family list exact",
    "abm_conv2d_reference": "the single kernel oracle: the literal two-stage loop of Equation 2",
    "clear_caches": "tests and cold-cache benches reset every registered cache family through it",
    "truncate_stream": "drives the stream-truncation case of the fault-injection campaign",
}

#: ``Class.method`` pairs only tests reach, and why each one stays.
ALLOWED_METHODS = {
    "TraceRecorder.verify_no_overlap": "schedule invariant: no CU runs two tasks at once",
    "TraceRecorder.windows_in_flight": "schedule invariant: at most two prefetch windows per layer",
    "FunctionalCU.round_output": "Sum/Round stage of the CU oracle the emulation is checked against",
    "Fifo.peek": "head inspection of the CU oracle's FIFO model",
}


@lru_cache(maxsize=None)
def _public_definitions():
    """{name: module path} of every public top-level def/class."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                found.setdefault(node.name, str(path.relative_to(ROOT)))
    return found


@lru_cache(maxsize=None)
def _public_methods():
    """{``Class.method``: module path} of every public method or property
    of a public or private top-level class."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not member.name.startswith("_"):
                    found[f"{node.name}.{member.name}"] = str(path.relative_to(ROOT))
    return found


@lru_cache(maxsize=None)
def _shipped_nodes():
    return tuple(
        node
        for directory in SHIPPED
        for path in sorted((ROOT / directory).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


@lru_cache(maxsize=None)
def _referenced_names():
    names = set()
    for node in _shipped_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return frozenset(names)


@lru_cache(maxsize=None)
def _referenced_attributes():
    return frozenset(
        node.attr for node in _shipped_nodes() if isinstance(node, ast.Attribute)
    )


def test_every_public_name_is_reached():
    referenced = _referenced_names()
    unreached = sorted(
        f"{module}: {name}"
        for name, module in _public_definitions().items()
        if name not in referenced and name not in ALLOWED
    )
    assert not unreached, (
        "public names only tests reach; delete them or add a reason to "
        f"ALLOWED: {unreached}"
    )


def test_allowlist_has_no_stale_entries():
    """Each allowed name still exists and is still reached by tests only."""
    defined = _public_definitions()
    referenced = _referenced_names()
    stale = sorted(
        name for name in ALLOWED if name not in defined or name in referenced
    )
    assert not stale, f"remove these ALLOWED entries: {stale}"


def test_every_public_method_is_reached():
    referenced = _referenced_attributes()
    unreached = sorted(
        f"{module}: {method}"
        for method, module in _public_methods().items()
        if method.rsplit(".", 1)[-1] not in referenced and method not in ALLOWED_METHODS
    )
    assert not unreached, (
        "public methods only tests reach; delete them or add a reason to "
        f"ALLOWED_METHODS: {unreached}"
    )


def test_method_allowlist_has_no_stale_entries():
    """Each allowed method still exists and is still reached by tests only."""
    defined = _public_methods()
    referenced = _referenced_attributes()
    stale = sorted(
        method
        for method in ALLOWED_METHODS
        if method not in defined or method.rsplit(".", 1)[-1] in referenced
    )
    assert not stale, f"remove these ALLOWED_METHODS entries: {stale}"
