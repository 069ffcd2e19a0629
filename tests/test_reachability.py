"""Every def and method in ``src/repro`` is run by the program.

The program is the reviewed list :data:`ROOTS`: ``abm-spconv`` command
lines that between them set every option of every subcommand, and the
perfbench operations that run in-process. One subprocess runs them all
under ``sys.setprofile`` and ``threading.setprofile`` and records every
code object under ``src/repro`` that starts. An outermost def (a
top-level function, or a method of a top-level class, dunders included)
runs when its own code object or one nested in it starts. Bodies marked
``@abc.abstractmethod`` are exempt.

A def that no root runs is deleted, not kept, unless :data:`ORACLES`
lists it with the reason it stays: the fast path it is the oracle of,
the invariant it checks, the fault campaign it drives, the file format it
reads, or the open ROADMAP direction that makes the program run it. A
test, an example or a bench is not a reason; each shows what the program
does. Adding a root is a program decision, made here with its reason: a
flagged def that some command line can reach gets a root, not a deletion.

The same holds for options: a defaulted parameter of a public function,
method or ``__init__`` that no shipped call (``src/`` or ``perfbench/``)
passes is that default, written as a constant. The exceptions are listed
in :data:`ALLOWED_OPTIONS`, each with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SHIPPED = ("src", "perfbench")

#: What the program runs. A CLI line is an ``abm-spconv`` argv (``{tmp}``
#: is a scratch directory shared by the lines, which run in order); any
#: other line is a perfbench call evaluated with ``workloads`` imported.
#: Untraced ``infer``/``serve`` and ``design`` start child processes,
#: which the profiler cannot follow, so the traced and in-process forms
#: stand for them.
ROOTS = (
    "abm-spconv experiments",
    "abm-spconv --seed 2 experiments --only table1 --out {tmp}/experiments.md",
    "abm-spconv simulate --model alexnet",
    "abm-spconv simulate --model vgg16 --trace --trace-capacity 64",
    "abm-spconv explore --model alexnet",
    "abm-spconv explore --model vgg16 --device 'Arria-10 GX1150'",
    "abm-spconv roofline --device 'Cyclone-V SE' --freq 250",
    "abm-spconv devices",
    "abm-spconv system --model alexnet --host-gops 8",
    "abm-spconv system --model vgg16 --device 'Stratix-V GXA3'",
    "abm-spconv serve-sim",
    # Scale-up and scale-down on a diurnal trace.
    "abm-spconv serve-sim --model cifarnet --trace diurnal --autoscale-max 6"
    " --autoscale-interval-ms 2 --requests 2000",
    # Admission control rejects best-effort requests.
    "abm-spconv serve-sim --trace burst --queue-limit 1 --best-effort 0.5"
    " --rate 400000 --requests 400",
    "abm-spconv serve-sim --trace uniform --workers 3 --max-batch 4"
    " --density 0.5 --device 'Arria-10 GX1150' --metrics-out {tmp}/metrics.jsonl",
    "abm-spconv metrics",
    "abm-spconv metrics --from {tmp}/metrics.jsonl --check",
    "abm-spconv metrics --from {tmp}/metrics.jsonl --format jsonl",
    "abm-spconv encode --out {tmp}/alexnet.abms",
    "abm-spconv encode --model vgg16 --out {tmp}/vgg16.abms --max-layer-weights 200000",
    'workloads.infer("infer-vgg16", workloads.Run(seed=1, seconds=0, trace=True, count=2))',
    "workloads.serve(workloads.Run(seed=1, seconds=0, trace=True, count=2, requests=2000))",
    "workloads.design_round(1, False, 0.0)",
    "workloads.design_round(1, True, 0.0)",
)

#: ``module.qualname`` (module dotted below ``repro``) of defs no root
#: runs, and why each one stays. A class name stands for all its methods.
ORACLES = {
    "core.abm.abm_conv2d_reference": (
        "the single kernel oracle: the literal two-stage loop of Equation 2 "
        "that the compiled LayerPlan is checked against"
    ),
    "core.abm._check_feature_codes": "input check of the kernel oracle",
    "core.encoding.encode_kernel": (
        "one-kernel view of encode_layer; the per-kernel oracle of the array encoder"
    ),
    "core.encoding.decode_kernel": (
        "inverse of encode_kernel; checks the per-kernel WT-Buffer/Q-Table format"
    ),
    "core.encoding.EncodedKernel": "the per-kernel format the kernel and CU oracles read",
    "core.encoding.QTableEntry": "one Q-Table entry of the per-kernel format",
    "core.encoding.EncodedLayer.kernels": (
        "the per-kernel view of a layer that the kernel and CU oracles read"
    ),
    "core.encoding.pack_index": (
        "WT-Buffer index format that the array encoder and the buffer model share"
    ),
    "core.encoding.unpack_index": "inverse of pack_index; checks the index format",
    "core.model_plan._PoolStage": (
        "AlexNet/cifarnet inference (a pool or ReLU no conv absorbs); ROADMAP "
        "direction 1's second PR adds the first CLI inference, which runs it"
    ),
    "core.model_plan._ReLUStage": (
        "AlexNet/cifarnet inference (a pool or ReLU no conv absorbs); ROADMAP "
        "direction 1's second PR adds the first CLI inference, which runs it"
    ),
    "core.opcount.measured_layer_counts": (
        "oracle of Table 1's statistics path: counts read off a real encoding"
    ),
    "core.opcount.expected_distinct_values": (
        "closed form the synthetic distinct-value draws are checked against"
    ),
    **dict.fromkeys(
        (
            "core.serialize.load_model",
            "core.serialize.loads",
            "core.serialize.load_layers",
            "core.serialize._read_layer",
            "core.serialize._read",
        ),
        "reads the blob that `abm-spconv encode --out` writes",
    ),
    "dse.performance._ideal_layer_cycles": "ROADMAP direction 1 prints the ideal model",
    "dse.resources.ResourceEstimate.utilization": (
        "ROADMAP direction 4's feasibility check is built on it"
    ),
    "dse.resources.ResourceUtilization.fits": (
        "ROADMAP direction 4's feasibility check is built on it"
    ),
    "experiments.table1.run_measured_from_encoding": (
        "oracle of Table 1's statistics path: counts from real encodings"
    ),
    "hw.emulation.emulate_layer": "oracle of the CU datapath model (docs/architecture.md)",
    "hw.cu.FunctionalCU": "the CU datapath the emulation oracle runs",
    "hw.address_gen.AddressGenerator": "the CU oracle's feature-buffer addressing",
    "hw.fifo.Fifo": "the CU oracle's partial-sum FIFO",
    **dict.fromkeys(
        (
            "hw.faults.flip_index_bit",
            "hw.faults.flip_value_bit",
            "hw.faults.truncate_stream",
            "hw.faults.random_fault",
            "hw.faults._rebuild",
            "hw.faults._entry",
        ),
        "drives the fault-injection campaign on encoded streams",
    ),
    **dict.fromkeys(
        (
            "hw.power.abm_power_analytic",
            "hw.power.analytic_energy_per_image",
            "hw.power.analytic_ddr_bytes",
        ),
        "per-point oracle of the joint search's power objective",
    ),
    "hw.trace.TraceRecorder.verify_no_overlap": (
        "schedule invariant: no CU runs two tasks at once"
    ),
    "hw.trace.TraceRecorder.windows_in_flight": (
        "schedule invariant: at most two prefetch windows per layer"
    ),
    "telemetry.caches.clear_caches": (
        "the cold start every cached fast path (plans, simulations, DSE "
        "tables) is checked against"
    ),
    "telemetry.caches.Memo.clear": "empties one family for clear_caches",
    "workloads.codebooks.expected_distinct": (
        "closed form the codebook occupancy draws are checked against"
    ),
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
    "hw.workload.workload_from_arrays(encoded_bytes)": (
        "tests pin an encoded size on hand-built workloads; shipped ones use the default"
    ),
    **dict.fromkeys(
        (
            "nn.layers.conv.Conv2D.__init__(stride)",
            "nn.layers.conv.Conv2D.__init__(padding)",
            "nn.layers.conv.Conv2D.__init__(groups)",
            "nn.layers.activation.Dropout.__init__(rate)",
            "nn.layers.lrn.LocalResponseNorm.__init__(local_size)",
            "nn.layers.lrn.LocalResponseNorm.__init__(alpha)",
            "nn.layers.lrn.LocalResponseNorm.__init__(beta)",
        ),
        "set from the zoo's ConvDef / DropoutDef / LRNDef fields, which Architecture.build "
        "passes as **args to a layer type the name match cannot follow",
    ),
    **dict.fromkeys(
        ("nn.layers.conv.Conv2D.__init__(weights)", "nn.layers.conv.Conv2D.__init__(bias)"),
        "integer weights and bias make Conv2D the Equation (1) oracle of the ABM "
        "kernels (tests/conftest.py::direct_conv)",
    ),
    "nn.layers.lrn.LocalResponseNorm.__init__(k)": (
        "LRN bias; LRNDef has no k field, so every zoo LRN uses 1"
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
    "telemetry.registry.MetricsRegistry.histogram(buckets)": (
        "shipped histograms time seconds on the default buckets"
    ),
    "telemetry.registry.MetricsRegistry.histogram(max_samples)": (
        "shipped histograms keep every sample"
    ),
}


# ---- the execution check ----------------------------------------------------


def _run_roots(tmp):
    """Run every root in this process under the profiler.

    Writes ``{"status": [0, or the failure, per root], "started": [[module
    path, first line], ...]}`` of the code objects under ``src/repro`` that
    started to ``tmp/started.json``.
    """
    import contextlib
    import io
    import shlex
    import threading

    started = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            started[id(code)] = code

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    threading.setprofile(profile)
    sys.setprofile(profile)
    from repro.cli import main

    import workloads

    status = []
    for line in ROOTS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            try:
                if line.startswith("abm-spconv "):
                    argv = [a.format(tmp=tmp) for a in shlex.split(line)[1:]]
                    code = main(argv)
                    status.append(code if not code else f"exit {code}: {err.getvalue()}")
                else:
                    eval(line, {"workloads": workloads})
                    status.append(0)
            except (Exception, SystemExit) as error:  # noqa: BLE001  (reported per root)
                status.append(f"{type(error).__name__}: {error}")
    sys.setprofile(None)
    threading.setprofile(None)
    package = str(PACKAGE) + os.sep
    found = sorted(
        {
            (str(Path(code.co_filename).relative_to(ROOT)), code.co_firstlineno)
            for code in started.values()
            if code.co_filename.startswith(package)
        }
    )
    Path(tmp, "started.json").write_text(json.dumps({"status": status, "started": found}))


@lru_cache(maxsize=None)
def _execution():
    """Run the roots in one fresh subprocess; see :func:`_run_roots`."""
    import tempfile

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        process = subprocess.run(
            [sys.executable, __file__, tmp],
            capture_output=True, text=True, env=env, cwd=tmp, timeout=600,
        )
        assert process.returncode == 0, process.stderr[-4000:]
        return json.loads(Path(tmp, "started.json").read_text())


def _outermost_defs():
    """{``module.qualname``: (path, first line, last line)} of every
    top-level function and every method of a top-level class, from its
    first decorator to its last line; abstract methods are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def abstract(node):
        return any(
            getattr(d, "attr", getattr(d, "id", None)) == "abstractmethod"
            for d in node.decorator_list
        )

    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        relative = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node.name, node)] if isinstance(node, functions) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, functions) and not abstract(m)
                ]
            for qualname, member in members:
                first = min([member.lineno] + [d.lineno for d in member.decorator_list])
                found[f"{module}.{qualname}"] = (relative, first, member.end_lineno)
    return found


@lru_cache(maxsize=None)
def _unrun_defs():
    """``module.qualname`` of every outermost def no root runs."""
    started = {}
    for path, line in _execution()["started"]:
        started.setdefault(path, []).append(line)
    return frozenset(
        name
        for name, (path, first, last) in _outermost_defs().items()
        if not any(first <= line <= last for line in started.get(path, ()))
    )


def _oracle_of(name):
    """The ORACLES key covering the def ``module.qualname``, or None."""
    if name in ORACLES:
        return name
    owner = name.rsplit(".", 1)[0]
    return owner if owner in ORACLES else None


def _parser_options():
    """Every subcommand and option string of ``abm-spconv``'s parser."""
    import argparse

    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    found = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                found.update(action.choices)
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                found.update(action.option_strings)
    return found


def test_every_option_has_a_root():
    import shlex

    used = {
        word
        for line in ROOTS
        if line.startswith("abm-spconv ")
        for word in shlex.split(line)
    }
    missing = sorted(_parser_options() - used)
    assert not missing, f"add a ROOTS line that sets each of: {missing}"


def test_every_root_succeeds():
    failed = [
        f"{line}: {status}"
        for line, status in zip(ROOTS, _execution()["status"])
        if status != 0
    ]
    assert not failed, failed


def test_every_def_is_run_or_an_oracle():
    unrun = sorted(name for name in _unrun_defs() if _oracle_of(name) is None)
    assert not unrun, (
        "defs no root runs; delete each, give it a root, or add its reason "
        f"to ORACLES: {unrun}"
    )


def test_oracles_have_no_stale_entries():
    """Each oracle still names a def, and no root runs any def it covers."""
    defined = _outermost_defs()
    unrun = _unrun_defs()
    stale = sorted(
        key
        for key in ORACLES
        if not any(_oracle_of(name) == key for name in defined)
        or any(_oracle_of(name) == key and name not in unrun for name in defined)
    )
    assert not stale, f"remove these ORACLES entries: {stale}"


# ---- options ------------------------------------------------------------------


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
            found[key] = (f"{module}.{qualname}", parameter, call_name, index)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
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
def _shipped_calls():
    """{called name: [ast.Call]} of every call in shipped code, matched by
    the called ``Name`` or ``Attribute``."""
    calls = {}
    for directory in SHIPPED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
    """Options of defs that are not oracles that no shipped call passes."""
    return sorted(
        option
        for option, (name, parameter, call_name, index) in _public_options().items()
        if _oracle_of(name) is None and not _option_is_set(call_name, index, parameter)
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


if __name__ == "__main__":
    _run_roots(sys.argv[1])
