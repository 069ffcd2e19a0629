"""Command-line interface: ``abm-spconv <command>``.

Commands
--------
- ``experiments [--only ID] [--out FILE]`` — regenerate the paper's
  tables/figures and the extension studies as one markdown text (per
  experiment its rendering and the paper-vs-measured table); print it, or
  write it to FILE.
- ``simulate --model {alexnet,vgg16}`` — run the accelerator simulator on a
  calibrated synthetic workload and print the per-layer report.
- ``explore --model {alexnet,vgg16}`` — run the design-space exploration
  flow and print the chosen configuration, followed by the optimum of an
  exhaustive search over the seven-axis joint space.
- ``roofline`` — print the Figure 1 roofline for a device.
- ``devices`` — list the FPGA device catalog (logic/DSP/M20K/bandwidth).
- ``system --model {alexnet,vgg16}`` — model the pipelined CPU/FPGA
  system and print how much host work the accelerator hides.
- ``serve-sim --model {lenet,cifarnet}`` — simulate batched serving across
  a pool of accelerator instances and print the latency/throughput report
  (the run records into a :mod:`repro.telemetry` registry, whose
  histograms give the latency lines); ``--metrics-out FILE`` also writes
  the JSONL snapshot.
- ``metrics`` — inspect, validate (``--check``) or re-export
  (``--format jsonl``) a telemetry snapshot.
- ``encode --model {alexnet,vgg16}`` — encode a synthetic pruned model and
  write the serialized blob to ``--out``.

Bad input (an unknown device or experiment name, a negative seed, a
non-positive rate or frequency, an output path in a missing directory, an
unreadable or malformed snapshot) prints one ``error: ...`` line to stderr
and exits with status 2.

Each command imports the modules it runs inside its handler, so parsing
the command line loads no simulator, DSE or serving code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, List, Optional

from .experiments import EXPERIMENTS

if TYPE_CHECKING:
    from .hw.config import AcceleratorConfig
    from .hw.device import FPGADevice


class _UsageError(Exception):
    """Bad command-line input; :func:`main` reports it and exits 2."""


def _number(
    flag: str, kind: type, sign: str, ok: Callable[[float], bool]
) -> Callable[[str], float]:
    """An argparse ``type=`` for a ``kind`` that ``ok`` accepts; else exit 2."""
    noun = "integer" if kind is int else "finite number"

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise _UsageError(f"{flag} must be a {sign} {noun}, got {text!r}")
        return value

    return parse


def _positive(flag: str, kind: type = float) -> Callable[[str], float]:
    """An argparse ``type=`` for a finite ``kind`` > 0."""
    return _number(flag, kind, "positive", lambda v: 0 < v < math.inf)


def _non_negative(flag: str, kind: type = float) -> Callable[[str], float]:
    """An argparse ``type=`` for a finite ``kind`` >= 0."""
    return _number(flag, kind, "non-negative", lambda v: 0 <= v < math.inf)


def _output_path(flag: str) -> Callable[[str], str]:
    """An argparse ``type=`` for a file path whose directory exists.

    Checked at parse time, so a bad path fails before the command's work.
    """

    def parse(text: str) -> str:
        directory = os.path.dirname(text) or "."
        if not os.path.isdir(directory):
            raise _UsageError(f"{flag}: directory {directory!r} does not exist")
        return text

    return parse


def _experiment(name: str) -> str:
    """An argparse ``type=`` for a registered experiment name."""
    names = [known for known, _ in EXPERIMENTS]
    if name not in names:
        raise _UsageError(
            f"unknown experiment {name!r}; choose from {', '.join(names)}"
        )
    return name


def _device(name: str) -> FPGADevice:
    from .hw.device import get_device

    try:
        return get_device(name)
    except KeyError as error:
        raise _UsageError(error.args[0]) from None


def _paper_config(model: str) -> AcceleratorConfig:
    from .hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16

    return PAPER_CONFIG_VGG16 if model == "vgg16" else PAPER_CONFIG_ALEXNET


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import render

    names = [args.only] if args.only else [name for name, _ in EXPERIMENTS]
    text = render(names, seed=args.seed)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out} ({len(text.encode('utf-8')) / 1024:.1f} KiB)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .hw.accelerator import AcceleratorSimulator
    from .workloads.synthetic import synthetic_model_workload

    config = _paper_config(args.model)
    device = _device(args.device)
    workload = synthetic_model_workload(args.model, seed=args.seed)
    simulator = AcceleratorSimulator(config, device)
    trace = None
    if args.trace:
        from .hw.trace import TraceRecorder

        trace = TraceRecorder(capacity=args.trace_capacity)
    result = simulator.simulate(workload, trace=trace)
    print(f"model: {args.model}   config: {config.describe()}")
    print(simulator.utilization_summary(result))
    print()
    print(f"throughput:       {result.throughput_gops:8.1f} GOP/s (dense-op basis)")
    print(f"effective rate:   {result.effective_gops:8.1f} GOP/s (executed ops)")
    print(f"inference time:   {result.seconds_per_image * 1e3:8.2f} ms/image")
    print(f"CU utilization:   {result.cu_utilization:8.1%}")
    print(f"avg bandwidth:    {result.bandwidth_gbs:8.2f} GB/s")
    if trace is not None:
        print(
            f"trace:            {trace.recorded} event(s) recorded, "
            f"{trace.dropped} dropped"
        )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .dse.explorer import explore
    from .dse.joint_space import default_joint_space, exhaustive_search
    from .workloads.synthetic import synthetic_model_workload

    device = _device(args.device)
    workload = synthetic_model_workload(args.model, seed=args.seed)
    try:
        result = explore(workload, device, seed=args.seed)
    except ValueError as error:
        message = f"no {args.model} design fits {device.name}: {error}"
        raise _UsageError(message) from None
    print(f"exploration for {args.model} on {device.name}")
    print(f"  sharing factor N:    {result.n_share}")
    print(f"  optimal N_knl:       {result.chosen_n_knl}")
    print(f"  chosen config:       {result.chosen.describe()}")
    print(
        f"  buffers:             D_f={result.buffers.d_f} "
        f"D_w={result.buffers.d_w} D_q={result.buffers.d_q}"
    )
    print(f"  predicted:           {result.performance.throughput_gops:.1f} GOP/s")
    print(
        f"  bandwidth:           {result.bandwidth.required_bandwidth_gbs:.2f} GB/s "
        f"needed of {device.bandwidth_gbs:g} "
        f"({'compute' if result.bandwidth.compute_bound else 'memory'}-bound)"
    )
    print("  top candidates:")
    for candidate in result.candidates:
        print(
            f"    S_ec={candidate.s_ec:>2} N_cu={candidate.n_cu} -> "
            f"{candidate.throughput_gops:6.1f} GOP/s  "
            f"logic {candidate.utilization.logic:.0%} "
            f"dsp {candidate.utilization.dsp:.0%} "
            f"mem {candidate.utilization.memory:.0%}"
        )
    space = default_joint_space([workload])
    best = exhaustive_search([workload], device, space=space)
    params = best.params
    print(f"joint-space optimum ({space.size:,} configurations, exhaustive):")
    print(
        f"  config:              N_knl={params['n_knl']:g} "
        f"S_ec={params['s_ec']:g} N_cu={params['n_cu']:g} "
        f"N={params['n_share']:g} D_f={params['d_f']:g} "
        f"D_w={params['d_w']:g} @{params['freq_mhz']:g} MHz"
    )
    for name, value in best.values.items():
        print(f"  {name + ':':<20} {value:.4g}")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from .dse.roofline import RooflineModel

    device = _device(args.device)
    print(RooflineModel(device, freq_mhz=args.freq).render())
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from .hw.device import available_devices, get_device

    header = (
        f"{'device':<18} {'ALMs':>9} {'DSPs':>6} {'M20K':>6} "
        f"{'BW GB/s':>8} {'MACs/cy':>8} {'max acc':>8}"
    )
    print(header)
    print("-" * len(header))
    for name in available_devices():
        device = get_device(name)
        print(
            f"{device.name:<18} {device.alms:>9,} {device.dsps:>6,} "
            f"{device.m20k_blocks:>6,} {device.bandwidth_gbs:>8g} "
            f"{device.mac_count:>8,} {device.max_accumulators:>8,}"
        )
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from .nn.models import get_architecture
    from .system.pipeline import run_system
    from .workloads.synthetic import synthetic_model_workload

    config = _paper_config(args.model)
    result = run_system(
        get_architecture(args.model),
        synthetic_model_workload(args.model, seed=args.seed),
        config,
        _device(args.device),
        host_ops_per_second=args.host_gops * 1e9,
    )
    print(f"pipelined CPU/FPGA system — {args.model}")
    print(f"  FPGA stage:      {result.fpga_s * 1e3:8.2f} ms/image")
    print(f"  host stage:      {result.host_s * 1e3:8.2f} ms/image")
    print(f"  CPU hidden:      {result.cpu_hidden}")
    print(f"  bottleneck:      {result.bottleneck}")
    print(f"  FPGA-only:       {result.fpga_gops:8.1f} GOP/s")
    print(f"  overall system:  {result.system_gops:8.1f} GOP/s")
    print(f"  pipeline gain:   {result.pipeline_speedup:8.2f}x vs sequential")
    return 0


def _check_serve_args(args: argparse.Namespace) -> None:
    """Reject a bad serving shape before the (slow) pipeline build."""
    checks = (
        (args.workers >= 1, "--workers must be >= 1"),
        (args.requests >= 1, "--requests must be >= 1"),
        (args.max_batch >= 1, "--max-batch must be >= 1"),
        (0 < args.rate < float("inf"), "--rate must be positive and finite"),
        (0 <= args.best_effort < 1, "--best-effort must be in [0, 1)"),
        (args.queue_limit is None or args.queue_limit >= 1,
         "--queue-limit must be >= 1"),
        (args.autoscale_max is None or args.autoscale_max > args.workers,
         "--autoscale-max must be > --workers"),
        (args.autoscale_interval_ms > 0,
         "--autoscale-interval-ms must be positive"),
        (0 < args.density <= 1, "--density must be in (0, 1]"),
    )
    for ok, message in checks:
        if not ok:
            raise _UsageError(message)


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    """Simulate batched serving across a pool of accelerator instances."""
    import numpy as np

    from .nn.models import get_architecture
    from .pipeline import QuantizedPipeline
    from .prune.schedules import uniform_schedule
    from .runtime import SystemRuntime
    from .serve.events import BatchPolicy, EventDrivenSimulator, SLOClass
    from .serve.fleet import AutoscalePolicy
    from .serve.loadgen import make_trace
    from .system.pipeline import ServiceProfile
    from .telemetry.context import Telemetry
    from .workloads.images import natural_image

    _check_serve_args(args)
    device = _device(args.device)
    architecture = get_architecture(args.model)
    network = architecture.build(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    pipeline = QuantizedPipeline(network)
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline.prune(uniform_schedule(names, args.density).densities)
    if not any(np.any(layer.weights) for layer in network.accelerated_layers()):
        raise _UsageError(f"--density {args.density:g} prunes every weight")
    pipeline.calibrate(natural_image(network.input_shape.as_tuple(), rng))
    pipeline.quantize()
    # The engine needs one deployed runtime: its timing profile.
    runtime = SystemRuntime.from_pipeline(
        pipeline, architecture.accelerated_specs(), device
    )
    policy = BatchPolicy(max_batch=args.max_batch)
    telemetry = Telemetry()

    print(
        f"serving simulation — {args.model} on {args.workers} simulated "
        "accelerator instance(s)"
    )
    print(
        f"policy:          max batch {policy.max_batch} (continuous lanes), "
        f"offered load {args.rate:g} req/s ({args.trace})"
    )
    slo_mix = {"latency-sensitive": 1.0}
    classes = (SLOClass("latency-sensitive", priority=0),)
    if args.best_effort > 0:
        slo_mix = {
            "latency-sensitive": 1.0 - args.best_effort,
            "best-effort": args.best_effort,
        }
        classes = (
            SLOClass("latency-sensitive", priority=0),
            SLOClass("best-effort", priority=1, queue_limit=args.queue_limit),
        )
    autoscale = None
    if args.autoscale_max is not None:
        autoscale = AutoscalePolicy(
            min_instances=args.workers,
            max_instances=args.autoscale_max,
            check_interval_s=args.autoscale_interval_ms * 1e-3,
        )
    trace = make_trace(
        args.trace, args.requests, args.rate, seed=args.seed, slo_mix=slo_mix
    )
    engine = EventDrivenSimulator(
        ServiceProfile.from_runtime(runtime),
        policy,
        classes=classes,
        instances=args.workers,
        autoscale=autoscale,
        telemetry=telemetry,
        # Spans only feed the snapshot; the summary reads the registry.
        record_spans=bool(args.metrics_out),
    )
    report = engine.run_trace(trace)
    if report.scale_events:
        print(
            f"autoscaling:     {len(report.scale_events)} decision(s), "
            f"peak {report.peak_instances} instance(s), "
            f"final {report.final_instances}"
        )
    print(report.render(telemetry.registry))
    if args.metrics_out:
        from .telemetry.exporters import write_jsonl

        snapshot = telemetry.snapshot()
        size = write_jsonl(snapshot, args.metrics_out)
        totals = snapshot["span_totals"]
        spans = ", ".join(
            f"{name}×{int(data['count'])}" for name, data in sorted(totals.items())
        )
        print(f"telemetry:       {spans}")
        print(f"metrics written: {args.metrics_out} ({size} bytes)")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    """Encode a synthetic pruned model and write the deployment blob."""
    import numpy as np

    from .core.encoding import encode_layer
    from .core.serialize import save_model
    from .nn.models import get_architecture
    from .prune.schedules import deep_compression_schedule
    from .workloads.codebooks import codebook_size
    from .workloads.synthetic import synthesize_quantized_layer

    architecture = get_architecture(args.model)
    schedule = deep_compression_schedule(args.model)
    rng = np.random.default_rng(args.seed)
    layers = []
    skipped = 0
    for spec in architecture.accelerated_specs():
        if spec.weight_count > args.max_layer_weights:
            skipped += 1
            continue
        codes = synthesize_quantized_layer(
            spec,
            schedule.density(spec.name),
            codebook_size(args.model, spec.name),
            rng,
        )
        layers.append(encode_layer(spec.name, codes))
    size = save_model(layers, args.out)
    print(f"wrote {args.out}: {len(layers)} layers, {size / 1e6:.2f} MB")
    if skipped:
        print(f"({skipped} layers above --max-layer-weights were skipped)")
    return 0


def _demo_snapshot() -> dict:
    """A tiny deterministic telemetry snapshot (virtual clock, no compute).

    Exercises every record kind the exporters know — counters, gauges,
    histograms, cache stats, a nested span tree — so ``metrics`` without
    ``--from`` doubles as a self-check of the telemetry plumbing.
    """
    from .telemetry.context import Telemetry, activate
    from .telemetry.spans import VirtualClock

    clock = VirtualClock()
    telemetry = Telemetry(clock=clock.now)
    with activate(telemetry):
        with telemetry.span("request", demo=True):
            clock.advance(1e-3)
            with telemetry.span("batch", size=2):
                clock.advance(2e-3)
        registry = telemetry.registry
        registry.counter("demo/requests").inc(2)
        registry.gauge("demo/queue_depth").set(1)
        histogram = registry.histogram("demo/latency_s")
        histogram.observe(1e-3)
        histogram.observe(3e-3)
        return telemetry.snapshot()


def _render_metrics_summary(snapshot: dict) -> str:
    lines = [f"schema: {snapshot.get('schema')}"]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if counters or gauges:
        lines.append("metrics:")
        for name, value in counters.items():
            lines.append(f"  {name:<32} {value:>12g}  (counter)")
        for name, value in gauges.items():
            lines.append(f"  {name:<32} {value:>12g}  (gauge)")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, data in histograms.items():
            p50 = data.get("p50")
            p95 = data.get("p95")
            fmt = lambda v: f"{v:.3g}" if v is not None else "-"
            lines.append(
                f"  {name:<32} n={data['count']:<6} "
                f"p50={fmt(p50)} p95={fmt(p95)} max={fmt(data.get('max'))}"
            )
    caches = snapshot.get("caches", {})
    if caches:
        lines.append("caches:")
        for name, data in caches.items():
            lines.append(
                f"  {name:<16} {data['hits']:>8} hits {data['misses']:>8} misses "
                f"{data['evictions']:>6} evictions  "
                f"hit rate {data.get('hit_rate', 0.0):6.1%}"
            )
    totals = snapshot.get("span_totals", {})
    if totals:
        lines.append("spans:")
        for name, data in sorted(totals.items()):
            lines.append(
                f"  {name:<16} ×{int(data['count']):<6} "
                f"total {data['total_s'] * 1e3:.3f} ms"
            )
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Inspect, validate or convert a telemetry snapshot."""
    from .telemetry.exporters import export_jsonl, parse_jsonl, validate_snapshot

    if args.snapshot_file:
        try:
            with open(args.snapshot_file, "r", encoding="utf-8") as handle:
                snapshot = parse_jsonl(handle.read())
        except OSError as error:
            raise _UsageError(
                f"--from: cannot read {args.snapshot_file}: {error}"
            ) from None
        except ValueError as error:
            raise _UsageError(f"--from: {args.snapshot_file}: {error}") from None
    else:
        snapshot = _demo_snapshot()
    problems = validate_snapshot(snapshot)
    if args.check:
        if problems:
            for problem in problems:
                print(f"problem: {problem}")
            print(f"snapshot INVALID ({len(problems)} problem(s))")
            return 1
        sections = (
            f"{len(snapshot.get('counters', {}))} counter(s), "
            f"{len(snapshot.get('gauges', {}))} gauge(s), "
            f"{len(snapshot.get('histograms', {}))} histogram(s), "
            f"{len(snapshot.get('caches', {}))} cache(s), "
            f"{len(snapshot.get('spans', []))} span tree(s)"
        )
        print(f"snapshot ok: {sections}")
        return 0
    if args.format == "jsonl":
        print(export_jsonl(snapshot), end="")
    else:
        print(_render_metrics_summary(snapshot))
        if problems:
            for problem in problems:
                print(f"problem: {problem}")
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abm-spconv",
        description="ABM-SpConv (DAC 2019) reproduction toolkit",
    )
    parser.add_argument("--seed", type=_non_negative("--seed", int), default=1,
                        help="workload seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("--only", type=_experiment,
                       help=f"one of {', '.join(name for name, _ in EXPERIMENTS)}")
    p_exp.add_argument("--out", type=_output_path("--out"), default=None,
                       help="write the markdown to this file instead of stdout")
    p_exp.set_defaults(func=_cmd_experiments)

    p_sim = sub.add_parser("simulate", help="simulate a model on the accelerator")
    p_sim.add_argument("--model", choices=("alexnet", "vgg16"), default="vgg16")
    p_sim.add_argument("--device", default="Stratix-V GXA7")
    p_sim.add_argument("--trace", action="store_true",
                       help="record per-task scheduler events (serial, uncached)")
    p_sim.add_argument("--trace-capacity", type=_positive("--trace-capacity", int),
                       default=None,
                       help="ring-buffer capacity; overflow is reported as dropped")
    p_sim.set_defaults(func=_cmd_simulate)

    p_dse = sub.add_parser("explore", help="run design space exploration")
    p_dse.add_argument("--model", choices=("alexnet", "vgg16"), default="vgg16")
    p_dse.add_argument("--device", default="Stratix-V GXA7")
    p_dse.set_defaults(func=_cmd_explore)

    p_roof = sub.add_parser("roofline", help="print the Figure 1 roofline")
    p_roof.add_argument("--device", default="Stratix-V GXA7")
    p_roof.add_argument("--freq", type=_positive("--freq"), default=200.0)
    p_roof.set_defaults(func=_cmd_roofline)

    p_dev = sub.add_parser("devices", help="list the FPGA device catalog")
    p_dev.set_defaults(func=_cmd_devices)

    p_sys = sub.add_parser("system", help="pipelined CPU/FPGA system model")
    p_sys.add_argument("--model", choices=("alexnet", "vgg16"), default="vgg16")
    p_sys.add_argument("--device", default="Stratix-V GXA7")
    p_sys.add_argument("--host-gops", type=_positive("--host-gops"), default=4.0,
                       help="host elementwise rate in Gops/s")
    p_sys.set_defaults(func=_cmd_system)

    p_srv = sub.add_parser(
        "serve-sim", help="simulate batched multi-accelerator serving"
    )
    p_srv.add_argument(
        "--model",
        choices=("lenet", "cifarnet"),
        default="lenet",
        help="small zoo model that is pruned, calibrated, quantized and encoded "
        "for the timing profile; no inference runs",
    )
    p_srv.add_argument("--device", default="Stratix-V GXA7")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="simulated accelerator instances")
    p_srv.add_argument("--requests", type=int, default=32)
    p_srv.add_argument("--rate", type=float, default=50_000.0,
                       help="offered load in requests/s")
    p_srv.add_argument("--trace", choices=("poisson", "uniform", "diurnal",
                                           "burst"),
                       default="poisson", help="arrival process")
    p_srv.add_argument("--max-batch", type=int, default=8,
                       help="stream lanes per instance (continuous "
                            "batching)")
    p_srv.add_argument("--best-effort", type=float, default=0.0,
                       help="fraction of requests in a lower-priority "
                            "best-effort SLO class")
    p_srv.add_argument("--queue-limit", type=int, default=None,
                       help="admission-control queue bound for the "
                            "best-effort class")
    p_srv.add_argument("--autoscale-max", type=int, default=None,
                       help="enable autoscaling up to this many instances")
    p_srv.add_argument("--autoscale-interval-ms", type=float, default=1.0,
                       help="autoscaler check interval, virtual ms")
    p_srv.add_argument("--density", type=float, default=0.4,
                       help="uniform pruning density before quantization")
    p_srv.add_argument("--metrics-out", default=None,
                       help="write the run's repro.telemetry JSONL "
                            "snapshot to this file")
    p_srv.set_defaults(func=_cmd_serve_sim)

    p_met = sub.add_parser(
        "metrics", help="inspect or validate a telemetry snapshot"
    )
    p_met.add_argument("--from", dest="snapshot_file", default=None,
                       help="JSONL snapshot to load (default: built-in demo)")
    p_met.add_argument("--check", action="store_true",
                       help="schema-validate and exit 1 on problems")
    p_met.add_argument("--format", choices=("summary", "jsonl"),
                       default="summary")
    p_met.set_defaults(func=_cmd_metrics)

    p_enc = sub.add_parser("encode", help="write an encoded-model blob")
    p_enc.add_argument("--model", choices=("alexnet", "vgg16"), default="alexnet")
    p_enc.add_argument("--out", type=_output_path("--out"), default="model.abms")
    p_enc.add_argument("--max-layer-weights",
                       type=_positive("--max-layer-weights", int), default=3_000_000,
                       help="skip layers with more weights (memory guard)")
    p_enc.set_defaults(func=_cmd_encode)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
