"""Every public top-level name in ``src/repro`` is reached by shipped code.

A public ``def``/``class`` must be referenced — as a ``Name``, an
``Attribute`` or an import alias, not in a docstring — somewhere in
``src/`` or ``perfbench/``: the program and the benchmark that times it.
A name only tests, examples or the extension benches under
``benchmarks/`` call is deleted, not kept; an example or a bench shows
what the program does, so it may not be the one reason a name exists.
The exceptions are listed in :data:`ALLOWED`, each with the reason it
stays: the fast path it is the oracle of, the fault campaign it drives,
or the file format it reads.
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
def _referenced_names():
    names = set()
    for directory in SHIPPED:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return frozenset(names)


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
