"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _controller_config, build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_defaults(self):
        args = build_parser().parse_args(["place", "Q1-sliding"])
        args2 = build_parser().parse_args(
            ["place", "Q1-sliding", "--strategy", "evenly", "--workers", "6"]
        )
        assert args.strategy == "caps"
        assert args2.strategy == "evenly"
        assert args2.workers == 6

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "Q1", "--strategy", "bogus"])

    @pytest.mark.parametrize("command", ["place", "compare", "autoscale", "explore"])
    @pytest.mark.parametrize(
        "flag, expected",
        [(None, True), ("--fast-forward", True), ("--no-fast-forward", False)],
    )
    def test_fast_forward_is_on_unless_the_reference_is_asked_for(
        self, command, flag, expected
    ):
        argv = [command, "Q1-sliding"] + ([flag] if flag else [])
        args = build_parser().parse_args(argv)
        assert _controller_config(args).sim.fast_forward is expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["place", "Q1-sliding", "--jobs", "0"],
            ["place", "Q9"],
            ["place", "Q1-sliding", "--workers", "0"],
            ["place", "Q1-sliding", "--slots", "0"],
            ["place", "Q1-sliding", "--rate", "-5"],
            ["place", "Q1-sliding", "--duration", "0"],
            ["autoscale", "Q1-sliding", "--chaos", "bad"],
            ["autoscale", "Q1-sliding", "--control-chaos", "bad"],
            ["autoscale", "Q1-sliding", "--chaos", "slots:w0@10xinf"],
            ["autoscale", "Q1-sliding", "--chaos", "crash:w0@nan"],
            ["autoscale", "Q1-sliding", "--chaos", "crash:w0@1e400"],
            ["autoscale", "Q1-sliding", "--chaos", "crash:w1@50,crash:w0@nan,crash:w2@20"],
            ["autoscale", "Q1-sliding", "--chaos", "crash:w99@100"],
            ["autoscale", "Q1-sliding", "--workers", "2", "--chaos", "crash:w2@100"],
            ["autoscale", "Q1-sliding", "--checkpoint-interval", "0"],
            ["validate-runtime", "--duration", "0"],
            ["validate-runtime", "--queries", "q9"],
            ["validate-runtime", "--rate-scale", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, token",
        [
            ("slots:w0@10xinf", "slots:w0@10xinf"),
            ("crash:w1@50,crash:w0@nan,crash:w2@20", "crash:w0@nan"),
            ("crash:w1@50,crash:w99@100", "crash:w99@100"),
        ],
    )
    def test_bad_chaos_error_names_the_token(self, spec, token, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["autoscale", "Q1-sliding", "--chaos", spec])
        assert exit_info.value.code == 2
        assert f"'{token}'" in capsys.readouterr().err


class TestCommands:
    def test_queries_lists_all(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        for name in ("Q1-sliding", "Q6-session"):
            assert name in out

    def test_place_caps_meets_target(self, capsys):
        code = main(
            [
                "place", "Q1-sliding",
                "--instance", "r5d", "--workers", "4", "--slots", "4",
                "--rate", "10000", "--duration", "240",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parallelism" in out
        assert "throughput" in out

    def test_explore_small_space(self, capsys):
        code = main(
            [
                "explore", "Q1-sliding",
                "--instance", "r5d", "--workers", "4", "--slots", "4",
                "--limit", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "80 distinct plans" in out
        assert "meeting target" in out

    def test_unknown_query_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["place", "Q99-nope"])
        assert exit_info.value.code == 2
        assert "unknown query 'Q99-nope'" in capsys.readouterr().err


class TestColdStart:
    def test_importing_the_cli_does_not_load_scipy(self):
        # Only the ODRP baseline needs scipy.optimize (~0.5 s to import);
        # every other command must start without it.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
