"""Command-line interface."""

import pytest

from repro.cli import build_parser, experiment_overrides, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--scale", "tiny", "--seed", "3"])
        assert args.experiment == "fig9"
        assert args.scale == "tiny"
        assert args.seed == 3

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.scale == "small"
        assert args.seed == 0

    def test_all_is_a_choice(self):
        assert build_parser().parse_args(["all"]).experiment == "all"

    def test_ablations_are_choices(self):
        parser = build_parser()
        assert parser.parse_args(["ablation-epsilon"]).experiment == "ablation-epsilon"
        assert parser.parse_args(["validate-outage"]).experiment == "validate-outage"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "galactic"])


class TestOverrideFlags:
    def test_epsilon_and_allocator_parse(self):
        args = build_parser().parse_args(
            ["fig7", "--epsilon", "0.02", "--allocator", "baseline"]
        )
        assert args.epsilon == 0.02
        assert args.allocator == "baseline"

    def test_overrides_default_to_none(self):
        args = build_parser().parse_args(["fig5"])
        assert args.epsilon is None
        assert args.allocator is None

    def test_unknown_allocator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--allocator", "magic"])

    def test_epsilon_forwarded_to_matching_parameter(self):
        def runner(scale, seed, epsilon=0.05):
            pass

        assert experiment_overrides(runner, epsilon=0.02) == {"epsilon": 0.02}

    def test_epsilon_forwarded_as_singleton_sweep(self):
        def runner(scale, seed, epsilons=(0.01, 0.05)):
            pass

        assert experiment_overrides(runner, epsilon=0.02) == {"epsilons": (0.02,)}

    def test_allocator_resolved_by_name(self):
        def runner(scale, seed, allocator=None):
            pass

        overrides = experiment_overrides(runner, allocator="baseline")
        assert set(overrides) == {"allocator"}
        assert overrides["allocator"] is not None

    def test_unsupported_override_is_reported_not_raised(self, caplog):
        def runner(scale, seed):
            pass

        with caplog.at_level("WARNING", logger="repro.cli"):
            overrides = experiment_overrides(runner, epsilon=0.02, allocator="baseline")
        assert overrides == {}
        assert "--epsilon" in caplog.text and "--allocator" in caplog.text


class TestHarnessFlags:
    def test_parallel_flags_parse(self):
        args = build_parser().parse_args(
            ["all", "--workers", "4", "--run-dir", "/tmp/sweep", "--resume"]
        )
        assert args.workers == 4
        assert args.run_dir == "/tmp/sweep"
        assert args.resume is True

    def test_parallel_flags_default_to_sequential(self):
        args = build_parser().parse_args(["fig5"])
        assert args.workers == 1
        assert args.run_dir is None
        assert args.resume is False

    def test_resume_requires_run_dir(self):
        assert main(["fig8", "--scale", "tiny", "--resume"]) == 2

    @pytest.mark.slow
    def test_run_dir_reuse_without_resume_exits_2(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["fig8", "--scale", "tiny", "--run-dir", run_dir]) == 0
        capsys.readouterr()
        assert main(["fig8", "--scale", "tiny", "--run-dir", run_dir]) == 2

    @pytest.mark.slow
    def test_workers_and_resume_reproduce_sequential_output(self, tmp_path, capsys):
        assert main(["fig8", "--scale", "tiny"]) == 0
        sequential = capsys.readouterr().out
        run_dir = str(tmp_path / "run")
        assert (
            main(["fig8", "--scale", "tiny", "--workers", "2", "--run-dir", run_dir])
            == 0
        )
        assert capsys.readouterr().out == sequential
        assert (
            main(["fig8", "--scale", "tiny", "--run-dir", run_dir, "--resume"]) == 0
        )
        assert capsys.readouterr().out == sequential


class TestServeRouting:
    def test_serve_is_dispatched_before_experiment_parsing(self, monkeypatch):
        import repro.service.server as server

        seen = {}

        def fake_serve_main(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(server, "serve_main", fake_serve_main)
        assert main(["serve", "--port", "0", "--scale", "tiny"]) == 0
        assert seen["argv"] == ["--port", "0", "--scale", "tiny"]

    def test_serve_parser_defaults(self):
        from repro.service.server import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 7421
        assert args.scale == "small"
        assert args.allocator == "default"
        assert args.mode == "online"
        assert args.batch_max == 8
        assert args.epsilon == 0.05

    def test_serve_parser_rejects_unknown_mode(self):
        from repro.service.server import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--mode", "psychic"])


@pytest.mark.slow
class TestMain:
    def test_runs_one_experiment(self, capsys):
        exit_code = main(["fig10", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Fig. 10" in captured.out
