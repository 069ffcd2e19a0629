"""The benchmark's four workloads.

Each workload is a function of a :class:`Run` returning a :class:`Result`.
Untraced, the result carries the end-to-end metrics; traced (``Run.trace``),
operations alternate between untraced and traced, and the result carries
the per-layer metrics read from the traced ones plus the tracing overhead.

The workloads call only names exported from ``repro.pipeline``,
``repro.prune``, ``repro.nn.models``, ``repro.runtime``, ``repro.dse``,
``repro.hw``, ``repro.serve``, ``repro.workloads`` and ``repro.telemetry``,
so internals behind those names can change without touching this file.
Model weights are part of the program and fixed; ``Run.seed`` draws only
the inputs (images, synthetic design workloads, arrival traces).

Every time is in reference seconds (:class:`harness.RefClock`): set-up
phases are scaled by all three calibration kernels, and each workload's
operations by the kernels that match their work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Tuple

import harness

harness.use_source_tree()

import numpy as np  # noqa: E402  (after the source tree is on the path)
from repro.dse import default_joint_space, exhaustive_search, explore  # noqa: E402
from repro.hw import (  # noqa: E402
    PAPER_CONFIG_ALEXNET,
    PAPER_CONFIG_VGG16,
    STRATIX_V_GXA7,
    AcceleratorSimulator,
)
from repro.nn.models import get_architecture  # noqa: E402
from repro.pipeline import QuantizedPipeline  # noqa: E402
from repro.prune import deep_compression_schedule  # noqa: E402
from repro.runtime import SystemRuntime  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchPolicy,
    EventDrivenSimulator,
    ServiceProfile,
    SLOClass,
    poisson_trace,
)
from repro.telemetry import Telemetry, activate, cache_snapshot  # noqa: E402
from repro.workloads import natural_image, synthetic_model_workload  # noqa: E402

from harness import Phases, RefClock, Summary, percentile, span_table  # noqa: E402

#: Calibration kernels of set-up work: numpy and Python alike.
SETUP_KERNELS = ("gemm", "stream", "events")


@dataclass(frozen=True)
class Run:
    """How one workload run is driven."""

    seed: int
    seconds: float
    trace: bool = False
    #: Minimum number of timed operations, whatever ``seconds`` says.
    count: int = 1
    #: Set-ups whose median is ``setup_s`` (untraced runs); all but this
    #: process's own run in fresh child processes, one after another.
    setup_repeats: int = 3
    #: CPU seconds this process spent importing numpy and repro.
    import_s: float = 0.0
    #: serve: requests per arrival trace (about 0.1 s of host time, so a
    #: run takes its median over some 40 traces).
    requests: int = 10_000


@dataclass
class Result:
    """What one workload run measured and verified."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]
    digest: str
    #: Deterministic model outputs (simulated GOP/s, virtual latencies, op
    #: counts): equal on every run of a seed, so compared exactly.
    modeled: Dict[str, float]
    samples: Dict[str, dict] = field(default_factory=dict)
    trace_data: Dict[str, dict] = field(default_factory=dict)


def _end_to_end(
    setups: List[float], loop: harness.Loop, work_per_op: float, rss_mb: float
) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """The end-to-end metrics of an untraced run, with their samples.

    Both timings are medians over operations in reference seconds.  On a
    shared host the mean and the p90 follow the neighbours' bursts, so the
    p90 stays in the samples only, next to the operations' wall times.
    """
    seconds = list(loop.seconds.values())
    latency = Summary.of(seconds)
    metrics = {
        "setup_s": percentile(setups, 50),
        "throughput": percentile([work_per_op / s for s in seconds], 50),
        "latency_p50_ms": latency.median * 1e3,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": Summary.of(setups).as_dict(),
        "latency_s": latency.as_dict(),
        "wall_s": Summary.of(list(loop.wall.values())).as_dict(),
    }
    return metrics, samples


def _trace_data(telemetry: Telemetry) -> Dict[str, dict]:
    """Span self times and totals plus every cache's counters."""
    return {"spans": span_table(telemetry), "caches": cache_snapshot()}


def _split(loop: harness.Loop, trace: bool) -> Tuple[List[float], List[float]]:
    """(untraced, traced) operation seconds; traced runs trace odd operations."""
    untraced = [s for i, s in loop.seconds.items() if not (trace and i % 2)]
    traced = [s for i, s in loop.seconds.items() if trace and i % 2]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"too few successful operations: {loop.errors}")
    return untraced, traced


def _setup_phases(import_s: float, telemetry=None) -> Phases:
    """Set-up phases on the set-up clock, starting with this process's imports."""
    phases = Phases(RefClock(SETUP_KERNELS), telemetry)
    phases.record("import", import_s)
    return phases


def _setup_samples(name: str, run: Run) -> List[float]:
    """Set-up seconds of ``setup_repeats - 1`` fresh child processes."""
    args = ["--workload", name, "--seed", str(run.seed), "--role", "setup"]
    return [harness.child_json(args)["setup_s"] for _ in range(run.setup_repeats - 1)]


# ---- inference: infer-vgg16 -------------------------------------------------


@dataclass(frozen=True)
class InferConfig:
    model: str
    scale: float
    spatial_scale: float
    batch: int

    def specs(self):
        """Accelerated (fused) layer specs, in network order."""
        return get_architecture(self.model).accelerated_specs(
            scale=self.scale, spatial_scale=self.spatial_scale
        )


#: VGG16 at half width and quarter resolution: a batch-4 call takes about
#: 0.1 s and a set-up about 4 s.  Full-size AlexNet is left out: its
#: set-up takes about 11 s, three times per run, and the runs of all
#: workloads must fit a fixed time budget.
INFER = {
    "infer-vgg16": InferConfig("vgg16", 0.5, 0.25, batch=4),
}
#: A call is BLAS GEMMs and memory-bound numpy passes.
INFER_KERNELS = ("gemm", "stream")
#: Distinct input batches the timed loop cycles through.
DISTINCT = 16
#: Seed of the synthetic model weights (the program, not its input).
MODEL_SEED = 0


def _infer_batches(shape: Tuple[int, ...], batch: int, seed: int) -> List[np.ndarray]:
    """DISTINCT images; batch k holds images k, k+1, ... (mod DISTINCT)."""
    rng = np.random.default_rng([seed, 1])
    pool = [natural_image(shape, rng) for _ in range(DISTINCT)]
    return [
        np.stack([pool[(k + j) % DISTINCT] for j in range(batch)])
        for k in range(DISTINCT)
    ]


def _pipeline(config: InferConfig, seed: int, phases: Phases) -> QuantizedPipeline:
    """Build, prune (Deep Compression), calibrate and quantize to 8 bits."""
    with phases("build"):
        network = get_architecture(config.model).build(
            scale=config.scale, seed=MODEL_SEED, spatial_scale=config.spatial_scale
        )
    calibration = natural_image(network.input_shape.as_tuple(), np.random.default_rng(seed))
    with phases("prune"):
        pipeline = QuantizedPipeline(network)
        pipeline.prune(deep_compression_schedule(config.model).densities)
    with phases("calibrate"):
        pipeline.calibrate(calibration)
    with phases("quantize"):
        pipeline.quantize()
    return pipeline


def _infer_setup(config: InferConfig, seed: int, phases: Phases):
    """(pipeline, input batches, output of batch 0), compiling the fused plan."""
    pipeline = _pipeline(config, seed, phases)
    batches = _infer_batches(pipeline.network.input_shape.as_tuple(), config.batch, seed)
    with phases("compile"):
        first = pipeline.run_batch(batches[0])
    return pipeline, batches, first


def _ops(result) -> List[Tuple[str, int, int]]:
    return [(s.name, s.accumulate_ops, s.multiply_ops) for s in result.layer_stats]


def _same_outputs(results, expected) -> None:
    """Raise unless two run_batch results agree bit for bit, op counts too."""
    if len(results) != len(expected):
        raise AssertionError(f"{len(results)} outputs, expected {len(expected)}")
    for got, want in zip(results, expected):
        if not np.array_equal(got.output, want.output):
            raise AssertionError("output differs from the warm pass")
        if _ops(got) != _ops(want):
            raise AssertionError("op counts differ from the warm pass")


def _infer_layers(telemetry: Telemetry, stages: Tuple[str, ...], dense_flops: int) -> Dict[str, float]:
    """Per-stage attribution of the traced ``run_batch`` calls (ms per call).

    ``pipeline.outside_kernel_ms`` is the run_batch span's self time, so
    the stage times plus it add up to ``pipeline.run_batch_ms``.
    """
    calls = [s for s in telemetry.tracer.roots if s.name == "run_batch"]
    stage_s = dict.fromkeys(stages, 0.0)
    outside_s = 0.0
    for call in calls:
        kernels = [c for c in call.children if c.name == "kernel"]
        if sorted(k.attrs["layer"] for k in kernels) != sorted(stages):
            raise RuntimeError("a traced run_batch lacks a kernel span per fused stage")
        for kernel in kernels:
            stage_s[kernel.attrs["layer"]] += kernel.duration_s
        outside_s += call.duration_s - sum(k.duration_s for k in kernels)
    n = len(calls)
    kernel_s = sum(stage_s.values())
    metrics = {f"core.model_plan.stage_ms.{k}": v / n * 1e3 for k, v in stage_s.items()}
    metrics.update(
        {
            "core.model_plan.kernel_ms": kernel_s / n * 1e3,
            "pipeline.outside_kernel_ms": outside_s / n * 1e3,
            "pipeline.run_batch_ms": sum(c.duration_s for c in calls) / n * 1e3,
            "core.model_plan.kernel_gflops": dense_flops * n / kernel_s / 1e9,
            "core.model_plan.cache_hit_rate": cache_snapshot()["core.model_plan"]["hit_rate"],
        }
    )
    return metrics


def infer(name: str, run: Run) -> Result:
    """Closed loop, one client: ``run_batch`` over DISTINCT seeded batches."""
    config = INFER[name]
    # Child set-ups run before this process holds its own model, so at
    # most one model is resident at a time.
    setups = [] if run.trace else _setup_samples(name, run)
    telemetry = Telemetry() if run.trace else None
    phases = _setup_phases(run.import_s, telemetry)
    with activate(telemetry):
        pipeline, batches, first = _infer_setup(config, run.seed, phases)
    setups.append(sum(phases.seconds.values()))
    warm = [first]
    warm += [pipeline.run_batch(b) for b in batches[1:]]

    errors: List[str] = []
    try:  # one batch against the retained per-layer path, the oracle
        _same_outputs(pipeline.run_batch_reference(batches[0]), warm[0])
    except AssertionError as error:
        errors.append(f"fused vs reference: {error}")
    by_image: Dict[int, np.ndarray] = {}
    for k, results in enumerate(warm):
        for j, out in enumerate(results):
            image = (k + j) % DISTINCT
            if image in by_image and not np.array_equal(by_image[image], out.output):
                errors.append(f"image {image}: output depends on its batch")
            by_image.setdefault(image, out.output)
    ops = _ops(warm[0][0])

    def call(i: int):
        batch = batches[i % DISTINCT]
        if run.trace and i % 2:
            with activate(telemetry), telemetry.span("run_batch"):
                return pipeline.run_batch(batch)
        return pipeline.run_batch(batch)

    loop = harness.timed_loop(
        lambda i: i, call, lambda i, got: _same_outputs(got, warm[i % DISTINCT]),
        run.seconds, run.count, RefClock(INFER_KERNELS),
    )
    untraced, traced = _split(loop, run.trace)
    modeled = {
        "ops.acc_per_image": float(sum(acc for _, acc, _ in ops)),
        "ops.mult_per_image": float(sum(mult for _, _, mult in ops)),
    }
    result = Result(
        metrics={},
        attempted=loop.attempted + 1,  # + the fused-vs-reference check
        failed=len(loop.failed) + (1 if errors else 0),
        errors=errors + loop.errors,
        digest=harness.digest(*(by_image[i].tobytes() for i in range(DISTINCT)), ops),
        modeled=modeled,
    )
    if not run.trace:
        result.metrics, result.samples = _end_to_end(
            setups, loop, config.batch, harness.peak_rss_mb()
        )
        return result
    specs = config.specs()
    dense_flops = config.batch * sum(spec.dense_ops for spec in specs)
    result.metrics = {
        **_infer_layers(telemetry, tuple(spec.name for spec in specs), dense_flops),
        **{f"setup.{k}_s": v for k, v in phases.seconds.items()},
        "trace.overhead_pct": harness.trace_overhead_pct(untraced, traced),
        **modeled,
    }
    result.trace_data = _trace_data(telemetry)
    return result


# ---- design: explore + exhaustive search + simulation ---------------------

DESIGN_MODELS = ("alexnet", "vgg16")
#: Grid scoring and simulation slow down with the interpreter kernel, not
#: with the numpy ones (measured: see perfbench/README.md).
DESIGN_KERNELS = ("events",)
PAPER_CONFIGS = {"alexnet": PAPER_CONFIG_ALEXNET, "vgg16": PAPER_CONFIG_VGG16}
#: Paper Table 2: measured GOP/s of the proposed design on the GXA7.
TABLE2_GOPS = {"alexnet": 699.0, "vgg16": 1029.0}


def _design_model(model: str, workload, phases: Phases):
    """One model's share of a round: (digest material, metrics, (points, tasks))."""
    device = STRATIX_V_GXA7
    with phases(f"explore.{model}"):
        result = explore(workload, device)
    with phases(f"exhaustive_search.{model}"):
        space = default_joint_space([workload])
        best = exhaustive_search([workload], device, space=space)
    configs = [point.config for point in result.grid] + [result.chosen, PAPER_CONFIGS[model]]
    with phases(f"simulate.{model}"):
        sims = [
            AcceleratorSimulator(config, device, use_cache=False).simulate(workload)
            for config in configs
        ]
    grid_gops = [point.throughput_gops for point in result.grid]
    sim_gops = [sim.throughput_gops for sim in sims]
    errors = [abs(a - s) / s for a, s in zip(grid_gops, sim_gops)]
    material = {
        "chosen": asdict(result.chosen),
        "exhaustive": {"params": best.params, "values": best.values},
        "grid_gops": grid_gops,
        "sim_gops": sim_gops,
    }
    metrics = {
        f"dse.explore_s.{model}": phases.seconds[f"explore.{model}"],
        f"dse.joint_search_s.{model}": phases.seconds[f"exhaustive_search.{model}"],
        f"hw.simulate_ms.{model}": phases.seconds[f"simulate.{model}"] / len(sims) * 1e3,
        f"hw.model_sim_err_mean.{model}": sum(errors) / len(errors),
        f"hw.model_sim_err_max.{model}": max(errors),
        f"hw.paper_err.{model}": abs(sim_gops[-1] / TABLE2_GOPS[model] - 1.0),
        f"fpga_gops.{model}": sim_gops[-2],
    }
    tasks = sum(layer.tasks for sim in sims for layer in sim.layers)
    return material, metrics, (space.size, tasks)


def design_round(seed: int, traced: bool, import_s: float) -> dict:
    """One design round in this (fresh) process; see :func:`design`."""
    telemetry = Telemetry() if traced else None
    setup = _setup_phases(import_s, telemetry)
    phases = Phases(RefClock(DESIGN_KERNELS), telemetry)
    with activate(telemetry):
        with setup("synthesize"):
            workloads = {m: synthetic_model_workload(m, seed=seed) for m in DESIGN_MODELS}
        shares = {m: _design_model(m, workloads[m], phases) for m in DESIGN_MODELS}
    metrics: Dict[str, float] = {}
    for _, share, _ in shares.values():
        metrics.update(share)
    seconds = phases.seconds
    metrics["dse.joint_points_per_s"] = sum(c[0] for _, _, c in shares.values()) / sum(
        seconds[f"exhaustive_search.{m}"] for m in DESIGN_MODELS
    )
    metrics["hw.tasks_per_s"] = sum(c[1] for _, _, c in shares.values()) / sum(
        seconds[f"simulate.{m}"] for m in DESIGN_MODELS
    )
    metrics.update({f"setup.{k}_s": v for k, v in setup.seconds.items()})
    return {
        "setup_s": sum(setup.seconds.values()),
        "round_s": sum(seconds.values()),
        "digest": harness.digest({m: share[0] for m, share in shares.items()}),
        "metrics": metrics,
        "trace_data": _trace_data(telemetry) if traced else {},
    }


DESIGN_MODELED = tuple(
    f"{name}.{m}"
    for name in ("fpga_gops", "hw.model_sim_err_mean", "hw.model_sim_err_max", "hw.paper_err")
    for m in DESIGN_MODELS
)


def design(run: Run) -> Result:
    """Design rounds, each in a fresh process so every cache starts cold.

    A round explores the design of both models on the GXA7, searches the
    joint space exhaustively, and simulates every explored configuration
    plus the paper's, as one ``abm-spconv`` call would.
    """
    rounds: Dict[int, dict] = {}

    def check(i: int, got: dict) -> None:
        first = next(iter(rounds.values()), got)
        if got["digest"] != first["digest"]:
            raise AssertionError("design round differs from the first round")
        rounds[i] = got

    def call(i: int) -> dict:
        traced = "1" if run.trace and i % 2 else "0"
        args = ["--workload", "design", "--seed", str(run.seed), "--role", "round", "--trace", traced]
        return harness.child_json(args)

    # A round takes about 6 s, so --seconds alone would often stop at one;
    # three give a median (four, when traced, give two of each kind).
    count = max(run.count, 3 + run.trace)
    loop = harness.timed_loop(lambda i: i, call, check, run.seconds, count, clock=None)
    # The timed quantity is the round as the child measured it on its own
    # clock: the interpreter start and imports are set-up, not design work.
    loop.seconds = {i: got["round_s"] for i, got in rounds.items()}
    untraced, traced = _split(loop, run.trace)
    first = next(iter(rounds.values()))
    result = Result(
        metrics={},
        attempted=loop.attempted,
        failed=len(loop.failed),
        errors=loop.errors,
        digest=first["digest"],
        modeled={k: first["metrics"][k] for k in DESIGN_MODELED},
    )
    if not run.trace:
        setups = [got["setup_s"] for got in rounds.values()]
        # The rounds ran in child processes; this one only waited.
        rss = harness.peak_rss_mb(include_self=False)
        result.metrics, result.samples = _end_to_end(setups, loop, 1.0, rss)
        return result
    traced_rounds = [got for i, got in rounds.items() if i % 2]
    result.metrics = {
        name: percentile([got["metrics"][name] for got in traced_rounds], 50)
        for name in first["metrics"]
    }
    result.metrics["trace.overhead_pct"] = harness.trace_overhead_pct(untraced, traced)
    result.trace_data = traced_rounds[0]["trace_data"]
    return result


# ---- serve: open-loop traffic through the event-driven fleet --------------

#: The infer-vgg16 pipeline, for the set-up cost given at INFER; the
#: serving engine's host time does not depend on which deployment set the
#: profile.
SERVE_MODEL = INFER["infer-vgg16"]
#: The event loop is heap and dict work in the interpreter.
SERVE_KERNELS = ("events",)
INSTANCES = 16
POLICY = BatchPolicy(max_batch=16, max_wait_s=4e-3)
SLO_MIX = {"latency-sensitive": 0.6, "best-effort": 0.4}
#: Latency limit of the goodput metric, virtual seconds, and the share of
#: *sent* requests that must meet it (rejected requests miss it).
SLO_LIMIT_S = 25e-3
SLO_SHARE = 0.99
TIMED_LOAD = 0.8
SWEEP_LOADS = (0.5, 0.95, 1.25)


def _classes() -> Tuple[SLOClass, SLOClass]:
    return (
        SLOClass("latency-sensitive", priority=0, target_latency_s=SLO_LIMIT_S),
        SLOClass("best-effort", priority=1, queue_limit=256),
    )


def _serve_setup(seed: int, phases: Phases) -> ServiceProfile:
    """Deploy the infer-vgg16 pipeline (DSE picks the config), then profile it."""
    pipeline = _pipeline(SERVE_MODEL, seed, phases)
    with phases("deploy"):
        runtime = SystemRuntime.from_pipeline(pipeline, SERVE_MODEL.specs(), STRATIX_V_GXA7)
        return ServiceProfile.from_runtime(runtime)


def _trace_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _serve_point(profile: ServiceProfile, load: float, seed: int, requests: int, records: bool = False):
    """A fresh engine and a Poisson trace at ``load`` x fleet capacity."""
    capacity = INSTANCES * profile.capacity_rps
    trace = poisson_trace(requests, load * capacity, seed=seed, slo_mix=SLO_MIX)
    engine = EventDrivenSimulator(
        profile, POLICY, classes=_classes(), instances=INSTANCES, continuous=True,
        telemetry=Telemetry(), record_spans=False, collect_records=records,
    )
    return engine, trace


def _point_figures(engine, report) -> Dict[str, object]:
    """Virtual-time outcome of one trace; raises on broken accounting."""
    if report.served + report.rejected != report.offered:
        raise AssertionError(
            f"served {report.served} + rejected {report.rejected} != sent {report.offered}"
        )
    registry = engine.telemetry.registry
    classes = {}
    for name in report.class_names:
        histogram = registry.histogram("serve/latency_s", slo=name)
        classes[name] = {
            "count": histogram.count,
            "p50_ms": histogram.percentile(50) * 1e3,
            "p99_ms": histogram.percentile(99) * 1e3,
        }
    if sum(c["count"] for c in classes.values()) != report.served:
        raise AssertionError("latency samples do not match served requests")
    # The k-th fastest of all sent requests must finish within the limit.
    k = math.ceil(SLO_SHARE * report.offered)
    latency = registry.histogram("serve/latency_s")
    meets = k <= report.served and (
        latency.percentile(100.0 * (k - 0.5) / report.served) <= SLO_LIMIT_S
    )
    return {
        "sent": report.offered,
        "served": report.served,
        "rejected": report.rejected,
        "classes": classes,
        "meets_slo": meets,
    }


def serve(run: Run) -> Result:
    """Open loop: seeded Poisson traces through 16 continuously batching instances.

    The clock is virtual, so each request is timed from its scheduled
    arrival and the generator is never late; host time is the time of
    ``run_trace``.
    """
    setups = [] if run.trace else _setup_samples("serve", run)
    telemetry = Telemetry() if run.trace else None
    phases = _setup_phases(run.import_s, telemetry)
    with activate(telemetry):
        profile = _serve_setup(run.seed, phases)
    setups.append(sum(phases.seconds.values()))
    capacity = INSTANCES * profile.capacity_rps

    points: Dict[float, dict] = {}

    def call(prepared):
        i, engine, trace = prepared
        if run.trace and i % 2:
            with activate(telemetry), telemetry.span("run_trace"):
                return engine, engine.run_trace(trace)
        return engine, engine.run_trace(trace)

    def check(i: int, got) -> None:
        figures = _point_figures(*got)
        if i == 0:
            points[TIMED_LOAD] = figures

    loop = harness.timed_loop(
        lambda i: (i, *_serve_point(profile, TIMED_LOAD, _trace_seed(run.seed, i), run.requests)),
        call, check, run.seconds, run.count, RefClock(SERVE_KERNELS),
    )
    untraced, traced = _split(loop, run.trace)
    if TIMED_LOAD not in points:
        raise RuntimeError(f"the first timed trace failed: {loop.errors}")
    # The modeled sweep is untimed; a broken one raises (no result at all).
    reports = {}
    for j, load in enumerate(SWEEP_LOADS):
        engine, trace = _serve_point(
            profile, load, _trace_seed(run.seed, 900 + j), run.requests, records=True
        )
        reports[load] = engine.run_trace(trace)
        points[load] = _point_figures(engine, reports[load])

    modeled = {
        "hw.fpga_ms_per_image": profile.fpga_s * 1e3,
        "system.host_ms_per_image": profile.host_s * 1e3,
        # Continuous batching records stream runs (requests an instance
        # serves back to back), not fixed batches.
        "serve.requests_per_run": reports[0.95].served / len(reports[0.95].batches),
        "serve.rejected_frac.1.25": points[1.25]["rejected"] / points[1.25]["sent"],
        "serve.goodput_rps": max(
            [load * capacity for load, p in points.items() if p["meets_slo"]], default=0.0
        ),
    }
    for load, p in sorted(points.items()):
        for name, figures in p["classes"].items():
            modeled[f"serve.p99_ms.{name}.{load:g}"] = figures["p99_ms"]
    material = {
        "profile": [profile.fpga_s, profile.host_s, profile.dense_ops_per_image],
        "points": {f"{load:g}": p for load, p in sorted(points.items())},
    }
    result = Result(
        metrics={},
        attempted=loop.attempted + len(SWEEP_LOADS),
        failed=len(loop.failed),
        errors=loop.errors,
        digest=harness.digest(material),
        modeled=modeled,
    )
    if not run.trace:
        result.metrics, result.samples = _end_to_end(
            setups, loop, run.requests, harness.peak_rss_mb()
        )
        return result
    result.metrics = {
        **{f"setup.{k}_s": v for k, v in phases.seconds.items()},
        "serve.host_s_per_100k": percentile(traced, 50) / run.requests * 1e5,
        "trace.overhead_pct": harness.trace_overhead_pct(untraced, traced),
        **modeled,
    }
    result.trace_data = _trace_data(telemetry)
    return result


# ---- registry ---------------------------------------------------------------


def setup_only(name: str, seed: int, import_s: float) -> dict:
    """A child's set-up sample for ``name`` (infer-* or serve)."""
    phases = _setup_phases(import_s)
    if name == "serve":
        _serve_setup(seed, phases)
    else:
        _infer_setup(INFER[name], seed, phases)
    return {"setup_s": sum(phases.seconds.values())}


def _infer_layer_names(config: InferConfig) -> Tuple[str, ...]:
    return (
        *(f"setup.{p}_s" for p in ("import", "build", "prune", "calibrate", "quantize", "compile")),
        *(f"core.model_plan.stage_ms.{spec.name}" for spec in config.specs()),
        "core.model_plan.kernel_ms",
        "pipeline.outside_kernel_ms",
        "pipeline.run_batch_ms",
        "core.model_plan.kernel_gflops",
        "core.model_plan.cache_hit_rate",
        "ops.acc_per_image",
        "ops.mult_per_image",
        "trace.overhead_pct",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Run], Result]
    #: Per-layer metrics a traced run of this workload measures; the rest
    #: of the declared per-layer metrics are layers it never calls.
    layer_metrics: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    **{
        name: Workload(name, functools.partial(infer, name), _infer_layer_names(config))
        for name, config in INFER.items()
    },
    "design": Workload(
        "design",
        design,
        (
            "setup.import_s",
            "setup.synthesize_s",
            *(f"dse.{k}.{m}" for k in ("explore_s", "joint_search_s") for m in DESIGN_MODELS),
            "dse.joint_points_per_s",
            *(f"hw.simulate_ms.{m}" for m in DESIGN_MODELS),
            "hw.tasks_per_s",
            *DESIGN_MODELED,
            "trace.overhead_pct",
        ),
    ),
    "serve": Workload(
        "serve",
        serve,
        (
            *(f"setup.{p}_s" for p in ("import", "build", "prune", "calibrate", "quantize", "deploy")),
            "hw.fpga_ms_per_image",
            "system.host_ms_per_image",
            "serve.requests_per_run",
            *(
                f"serve.p99_ms.{slo}.{load:g}"
                for slo in SLO_MIX
                for load in sorted((TIMED_LOAD, *SWEEP_LOADS))
            ),
            "serve.rejected_frac.1.25",
            "serve.host_s_per_100k",
            "serve.goodput_rps",
            "trace.overhead_pct",
        ),
    ),
}
