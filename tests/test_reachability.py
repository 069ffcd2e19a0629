"""Every public name and method in ``src/repro`` is reached by shipped code.

A public top-level ``def``/``class`` must be referenced — as a ``Name``,
an ``Attribute`` or an import alias, not in a docstring — somewhere in
``src/`` or ``perfbench/``: the program and the benchmark that times it.
A public method or property of a top-level class must appear there as an
``Attribute``. A name or method only tests, examples or the extension
benches under ``benchmarks/`` call is deleted, not kept; an example or a
bench shows what the program does, so it may not be the one reason a name
exists. The same holds for options: a defaulted parameter of a public
function, method or ``__init__`` that no shipped call passes is that
default, written as a constant. The exceptions are listed in
:data:`ALLOWED`, :data:`ALLOWED_METHODS` and :data:`ALLOWED_OPTIONS`, each
with the reason it stays: the fast path it is the oracle of, the
invariant it checks, the fault campaign it drives, the file format it
reads, or the open roadmap item that removes it.
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
    "abm_power_analytic": "per-point oracle of the joint search's power objective",
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

#: ``module.function(parameter)`` or ``module.Class.method(parameter)``
#: options (module dotted below ``repro``) no shipped call passes, and why
#: each one stays.
ALLOWED_OPTIONS = {
    **dict.fromkeys(
        (
            "analysis.ascii_plots.line_plot(width)",
            "analysis.ascii_plots.line_plot(height)",
        ),
        "plot geometry; the experiments draw at the default size",
    ),
    "dse.explorer.explore(freq_mhz)": (
        "benchmarks/bench_models.py explores at 300 MHz; its large > 1.3x small "
        "check does not hold at 200 MHz (1.25x)"
    ),
    **dict.fromkeys(
        ("dse.explorer.explore(preset_n_cu)", "dse.explorer.explore(preset_s_ec)"),
        "the explore presets are ROADMAP direction 5",
    ),
    "experiments.batch_bandwidth.run(device)": (
        "benchmarks/bench_bandwidth.py's bandwidth-starved part is where the "
        "batch crossover shows; the paper's GXA7 is compute-bound at batch 1"
    ),
    "hw.faults.flip_index_bit(clamp_to_kernel)": "the unclamped flip is ROADMAP direction 9",
    "hw.workload.workload_from_arrays(encoded_bytes)": (
        "tests pin an encoded size on hand-built workloads; shipped ones use the default"
    ),
    **dict.fromkeys(
        (
            "nn.layers.activation.Dropout.__init__(rate)",
            "nn.layers.lrn.LocalResponseNorm.__init__(local_size)",
            "nn.layers.lrn.LocalResponseNorm.__init__(alpha)",
            "nn.layers.lrn.LocalResponseNorm.__init__(beta)",
        ),
        "set from the zoo's DropoutDef / LRNDef fields, which Architecture.build "
        "passes as **args to a layer type the name match cannot follow",
    ),
    "nn.layers.lrn.LocalResponseNorm.__init__(k)": (
        "LRN bias; LRNDef has no k field, so every zoo LRN uses 1"
    ),
    **dict.fromkeys(
        (
            "nn.layers.batchnorm.BatchNorm.__init__(gamma)",
            "nn.layers.batchnorm.BatchNorm.__init__(beta)",
            "nn.layers.batchnorm.BatchNorm.__init__(running_mean)",
            "nn.layers.batchnorm.BatchNorm.__init__(running_var)",
            "nn.layers.batchnorm.BatchNorm.__init__(eps)",
        ),
        "a trained layer's statistics; no zoo model has batch norm, only tests "
        "build one",
    ),
    "pipeline.QuantizedPipeline.__init__(feature_bits)": (
        "tests drive the exactness proofs of Equation 2 with other feature widths"
    ),
    "deploy.deploy(config)": (
        "an explicit configuration is how tests reach the buffer-fit error; "
        "shipped callers let the DSE pick"
    ),
    **dict.fromkeys(
        (
            "serve.loadgen.diurnal_trace(depth)",
            "serve.loadgen.burst_trace(bursts)",
            "serve.loadgen.burst_trace(burst_fraction)",
            "serve.loadgen.burst_trace(burst_width_s)",
        ),
        "load shape; serve-sim's named traces use the default",
    ),
    **dict.fromkeys(
        (
            "system.host.host_ops_from_architecture(scale)",
            "system.host.host_ops_from_architecture(spatial_scale)",
        ),
        "the host-op count of a scaled model, checked against the scaled build",
    ),
    **dict.fromkeys(
        (
            "workloads.synthetic.synthetic_model_workload(scale)",
            "workloads.synthetic.synthetic_model_workload(spatial_scale)",
        ),
        "open under ROADMAP direction 11: the scaled twin of Architecture.build",
    ),
    **dict.fromkeys(
        (
            "workloads.images.natural_image(channel_correlation)",
            "workloads.images.natural_image(value_range)",
        ),
        "open under ROADMAP direction 11: an image statistic only tests vary",
    ),
    "telemetry.registry.MetricsRegistry.histogram(buckets)": (
        "shipped histograms time seconds on the default buckets"
    ),
    "telemetry.registry.MetricsRegistry.histogram(max_samples)": (
        "shipped histograms keep every sample"
    ),
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
def _public_options():
    """{``module.qualname(parameter)``: (qualname, parameter, call name,
    positional index or None)} of every defaulted parameter of a public
    top-level function, or of a public method or ``__init__`` of a
    top-level class. ``module`` is dotted below ``repro``; a method's index
    skips ``self``/``cls``; an ``__init__`` is called by its class name."""
    found = {}

    def add(module, qualname, call_name, function, skip):
        args = function.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        options = [
            (arg.arg, index - skip)
            for index, arg in enumerate(positional[first_default:], first_default)
        ]
        options += [
            (arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for parameter, index in options:
            key = f"{module}.{qualname}({parameter})"
            found[key] = (qualname, parameter, call_name, index)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions) and not node.name.startswith("_"):
                add(module, node.name, node.name, node, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, functions) or (
                    member.name.startswith("_") and member.name != "__init__"
                ):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in member.decorator_list
                )
                call_name = node.name if member.name == "__init__" else member.name
                qualname = f"{node.name}.{member.name}"
                add(module, qualname, call_name, member, 0 if static else 1)
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


@lru_cache(maxsize=None)
def _shipped_calls():
    """{called name: [ast.Call]} of every call in shipped code, matched by
    the called ``Name`` or ``Attribute``."""
    calls = {}
    for node in _shipped_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name:
                calls.setdefault(name, []).append(node)
    return calls


def _option_is_set(call_name, index, keyword):
    """Whether some shipped call of ``call_name`` passes the parameter
    ``keyword`` at positional ``index`` (None: keyword-only). A ``*args``
    or ``**kwargs`` call counts as passing it."""
    return any(
        any(k.arg is None or k.arg == keyword for k in call.keywords)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or (index is not None and len(call.args) > index)
        for call in _shipped_calls().get(call_name, ())
    )


def _unset_options():
    """Options of names not already allowed that no shipped call passes."""
    return sorted(
        option
        for option, (qualname, parameter, call_name, index) in _public_options().items()
        if qualname not in ALLOWED
        and qualname not in ALLOWED_METHODS
        and not _option_is_set(call_name, index, parameter)
    )


def test_every_option_is_set():
    unset = [option for option in _unset_options() if option not in ALLOWED_OPTIONS]
    assert not unset, (
        "options no shipped call passes; make each a constant or add a reason "
        f"to ALLOWED_OPTIONS: {unset}"
    )


def test_option_allowlist_has_no_stale_entries():
    """Each allowed option still exists and is still passed by no shipped call."""
    unset = set(_unset_options())
    stale = sorted(option for option in ALLOWED_OPTIONS if option not in unset)
    assert not stale, f"remove these ALLOWED_OPTIONS entries: {stale}"


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
