"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main

#: Full stdout of ``serve-sim --requests 2048 --max-batch 2 --rate 400000
#: --best-effort 0.7 --queue-limit 4 --autoscale-max 4``.
SERVE_SIM_OVERLOAD = [
    'serving simulation — lenet on 2 simulated accelerator instance(s)',
    'policy:          max batch 2 (continuous lanes), offered load 400000 req/s (poisson)',
    'autoscaling:     2 decision(s), peak 3 instance(s), final 2',
    'requests:        832 in 3 stream runs (sizes 239x1, 296x1, 297x1)',
    'makespan:        5.131 ms virtual',
    'latency:         mean 0.078 ms   p50 0.054 ms   p95 0.153 ms   max 1.384 ms',
    'queue:           mean wait 0.043 ms   max depth 19',
    'throughput:      162159.7 img/s   743.7 GOP/s aggregate',
    'worker busy:     w0: 100%  w1: 100%  w2: 80%',
    'rejected:        1216 of 2048 offered (59.4%; queue_full: 1216; by class best-effort: 1216)',
]

#: Full stdout of ``system --model vgg16``.
SYSTEM_VGG16 = [
    'pipelined CPU/FPGA system — vgg16',
    '  FPGA stage:         34.79 ms/image',
    '  host stage:          4.92 ms/image',
    '  CPU hidden:      True',
    '  bottleneck:      fpga',
    '  FPGA-only:          889.2 GOP/s',
    '  overall system:     889.2 GOP/s',
    '  pipeline gain:       1.14x vs sequential',
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.model == "vgg16"
        assert args.device == "Stratix-V GXA7"

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "resnet"])

    def test_serve_sim_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.model == "lenet"
        assert args.workers == 2
        assert args.max_batch == 8

    def test_serve_sim_rejects_big_models(self):
        """Full-size VGG cannot run the functional serving pipeline."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--model", "vgg16"])


class TestCommands:
    def test_roofline(self, capsys):
        assert main(["roofline"]) == 0
        out = capsys.readouterr().out
        assert "204.8" in out
        assert "abm-spconv" in out

    def test_simulate_alexnet(self, capsys):
        assert main(["simulate", "--model", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "GOP/s" in out

    def test_explore(self, capsys):
        assert main(["explore", "--model", "vgg16"]) == 0
        out = capsys.readouterr().out
        assert "optimal N_knl" in out
        assert "top candidates" in out
        assert "joint-space optimum (279,450 configurations" in out
        assert "throughput_gops:     983.7" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--only", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "--only", "fig99"]) == 2

    def test_experiments_extension_without_comparisons(self, capsys):
        assert main(["experiments", "--only", "batch_bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "compute-bound" in out

    def test_system(self, capsys):
        assert main(["system", "--model", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "CPU hidden" in out
        assert "pipeline gain" in out

    def test_serve_sim(self, capsys):
        assert main([
            "serve-sim", "--requests", "6", "--workers", "2",
            "--max-batch", "2", "--rate", "100000",
        ]) == 0
        out = capsys.readouterr().out
        assert "GOP/s aggregate" in out
        assert "max batch 2" in out
        assert "p95" in out

    def test_serve_sim_overload_pinned(self, capsys):
        """Every line of the summary block — autoscaling, worker busy and
        rejected included — pinned as the command prints it."""
        assert main([
            "serve-sim", "--requests", "2048", "--max-batch", "2",
            "--rate", "400000", "--best-effort", "0.7", "--queue-limit", "4",
            "--autoscale-max", "4",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == SERVE_SIM_OVERLOAD

    def test_system_vgg16_pinned(self, capsys):
        assert main(["system", "--model", "vgg16"]) == 0
        assert capsys.readouterr().out.splitlines() == SYSTEM_VGG16

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["explore", "--device", "nope"], "unknown device 'nope'"),
            (["simulate", "--device", "nope"], "unknown device 'nope'"),
            (["roofline", "--device", "nope"], "unknown device 'nope'"),
            (["system", "--device", "nope"], "unknown device 'nope'"),
            (["serve-sim", "--requests", "0"], "--requests must be >= 1"),
            (["serve-sim", "--max-batch", "0"], "--max-batch must be >= 1"),
            (["serve-sim", "--best-effort", "-0.1"], "--best-effort must be in [0, 1)"),
            (["serve-sim", "--best-effort", "1"], "--best-effort must be in [0, 1)"),
            (["serve-sim", "--workers", "0"], "--workers must be >= 1"),
            (["serve-sim", "--rate", "nan"], "--rate must be positive and finite"),
            (["serve-sim", "--queue-limit", "0", "--best-effort", "0.3"],
             "--queue-limit must be >= 1"),
            (["serve-sim", "--autoscale-max", "4",
              "--autoscale-interval-ms", "0"],
             "--autoscale-interval-ms must be positive"),
            (["serve-sim", "--density", "1.5"], "--density must be in (0, 1]"),
            (["serve-sim", "--device", "nope"], "unknown device 'nope'"),
            (["system", "--host-gops", "inf"], "--host-gops must be a positive"),
            (["simulate", "--trace-capacity", "1.5"],
             "--trace-capacity must be a positive integer"),
            (["encode", "--max-layer-weights", "0"],
             "--max-layer-weights must be a positive integer"),
            (["serve-sim", "--rate", "0"], "--rate must be positive and finite"),
            (["system", "--host-gops", "0"], "--host-gops must be a positive"),
            (["roofline", "--freq", "0"], "--freq must be a positive"),
            (["roofline", "--freq", "fast"], "--freq must be a positive"),
            (["simulate", "--trace-capacity", "0"],
             "--trace-capacity must be a positive integer"),
            (["encode", "--max-layer-weights", "-5"],
             "--max-layer-weights must be a positive integer"),
            (["roofline", "--freq=-inf"], "--freq must be a positive"),
            (["--seed", "-1", "simulate"],
             "--seed must be a non-negative integer"),
            (["--seed", "x", "explore"],
             "--seed must be a non-negative integer"),
            (["encode", "--out", "no-such-dir/x.abms"],
             "--out: directory 'no-such-dir' does not exist"),
            (["experiments", "--out", "no-such-dir/r.md"],
             "--out: directory 'no-such-dir' does not exist"),
            (["metrics", "--from", "no-such-file.jsonl"],
             "--from: cannot read no-such-file.jsonl"),
            # This source file is not a JSONL snapshot.
            pytest.param(["metrics", "--from", __file__],
                         f"--from: {__file__}: line 1: invalid JSON",
                         id="metrics-from-malformed"),
            # Density 0 leaves the model no work to deploy.
            pytest.param(["serve-sim", "--density", "0"],
                         "--density must be in (0, 1]", id="density-zero"),
            # A ceiling at or below the fleet size cannot scale anything.
            pytest.param(["serve-sim", "--autoscale-max", "2"],
                         "--autoscale-max must be > --workers",
                         id="autoscale-max-equals-workers"),
            pytest.param(["serve-sim", "--workers", "3", "--autoscale-max", "0"],
                         "--autoscale-max must be > --workers",
                         id="autoscale-max-zero"),
            # In range, but pruning keeps no weight: nothing to deploy.
            pytest.param(["serve-sim", "--model", "lenet", "--density", "1e-9"],
                         "--density 1e-09 prunes every weight",
                         id="density-prunes-every-weight"),
            # A VGG16 design fits Cyclone-V (exhaustive_search finds N_knl=10
            # S_ec=4 N_cu=1 N=3), but explore's N_knl sweep runs at the GXA7
            # presets preset_n_cu=3, preset_s_ec=20, where no N_knl fits.
            pytest.param(["explore", "--model", "vgg16", "--device", "Cyclone-V SE"],
                         "no vgg16 design fits Cyclone-V SE",
                         id="explore-infeasible-device"),
            pytest.param(["experiments", "--only", "fig99"],
                         "unknown experiment 'fig99'; choose from table1, table2,",
                         id="experiments-unknown-name"),
        ],
    )
    def test_bad_input_fails_cleanly(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    def test_encode_roundtrip(self, capsys, tmp_path):
        from repro.core.serialize import load_model

        path = str(tmp_path / "model.abms")
        assert main(["encode", "--model", "alexnet", "--out", path]) == 0
        layers = load_model(path)
        assert layers
        assert all(layer.nonzero_count > 0 for layer in layers)


class TestExperimentsReport:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "report.md"
        assert main(["experiments", "--out", str(path)]) == 0
        return path.read_bytes()

    def test_report_contains_all_sections(self, written):
        from repro.experiments import EXPERIMENTS

        text = written.decode("utf-8")
        for _, title in EXPERIMENTS:
            assert f"\n## {title}\n" in text
        for heading in ("Table 1", "Table 2", "Table 3", "Figure 1", "Figure 6",
                        "Figure 7", "CU execution", "Extension"):
            assert f"\n## {heading}" in text
        assert "paper vs measured" in text

    def test_out_file_is_stdout_byte_for_byte(self, written, capsys):
        assert main(["experiments"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == written

    def test_report_loads_its_experiments_in_a_fresh_interpreter(self):
        # The experiments package imports no experiment module, so the
        # renderer must import each one itself (one cheap section suffices).
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "experiments", "--only", "fig1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "## Figure 1" in result.stdout
