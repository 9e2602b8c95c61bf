"""Tests for the CLI and the solution report."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.flow.pipeline import PipelineConfig
from repro.flow.serialize import decode
from repro.flow.session import Session
from repro.flow.report import solution_report
from repro.circuits import load_circuit


class TestCli:
    def test_catalog_lists_circuits(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out
        assert "s15850" in out
        assert "embedded" in out and "synthetic" in out

    def test_run_pipeline(self, capsys):
        assert main(["run", "--circuit", "c17", "--evolution-length", "8"]) == 0
        out = capsys.readouterr().out
        assert "#Triplets=" in out
        assert "Reseeding solution" in out
        assert "Covering statistics" in out

    def test_run_uniform_flag(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--circuit",
                    "c17",
                    "--evolution-length",
                    "8",
                    "--uniform",
                ]
            )
            == 0
        )
        assert "uniform-T refinement" in capsys.readouterr().out

    def test_atpg_command(self, capsys):
        assert main(["atpg", "--circuit", "c17", "--patterns"]) == 0
        out = capsys.readouterr().out
        assert "|TS|=" in out
        # pattern lines are 5-bit binary strings
        assert any(
            len(line) == 5 and set(line) <= {"0", "1"}
            for line in out.splitlines()
        )

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--circuit", "c17"],
            ["sweep", "--circuits", "c17", "--tpgs", "adder"],
            ["table2", "--circuits", "c17"],
        ],
        ids=["run", "sweep", "table2"],
    )
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, command, workers, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--workers", workers])
        assert exit_info.value.code == 2
        assert (
            f"argument --workers: must be >= 1, got {workers}"
            in capsys.readouterr().err
        )

    def test_serve_batch_window_flag_removed(self, capsys):
        """The batcher holds nothing, so there is no window to set."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--batch-window-ms", "10"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch-window-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run", "--circuit", "c17"], ["sweep", "--circuits", "c17"]]
    )
    def test_values_flag_removed(self, capsys, argv):
        """The packed carrier picks the logic, so no flag picks it."""
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--values", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --values" in capsys.readouterr().err

    def test_missing_required_arg(self):
        with pytest.raises(SystemExit):
            main(["run"])  # --circuit is required

    def test_parser_has_experiment_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("table1", "table2", "figure2"):
            assert name in text

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (
                ["table1"],
                {"circuits": None, "full": False, "scale": 0.25, "seed": 2001,
                 "evolution_length": 32, "no_gatsby": False, "workers": None,
                 "cache": None, "csv": False},
            ),
            (
                ["table2"],
                {"circuits": None, "full": False, "scale": 0.25, "seed": 2001,
                 "evolution_length": 32, "workers": None, "cache": None,
                 "csv": False},
            ),
            (
                ["figure2"],
                {"circuit": "s1238", "tpg": "adder", "scale": 0.25, "seed": 2001,
                 "lengths": [2, 4, 8, 16, 32, 64, 128, 256], "cache": None},
            ),
        ],
        ids=["table1", "table2", "figure2"],
    )
    def test_experiment_flags_and_defaults(self, argv, expected):
        args = vars(build_parser().parse_args(argv))
        for key in ("command", "func", "usage_error"):
            args.pop(key)
        assert args == expected

    def test_experiment_help_lists_its_own_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "-h"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro table1")
        for flag in ("--circuits", "--full", "--no-gatsby", "--evolution-length", "--csv"):
            assert flag in out

    def test_figure2_rejects_a_bad_length_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure2", "--circuit", "c17", "--lengths", "4", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro figure2" in err
        assert "evolution_length must be >= 1, got 0" in err

    def test_parser_has_sweep_subcommand(self):
        assert "sweep" in build_parser().format_help()

    def test_experiment_delegation_forwards_flags(self, capsys):
        """`table1`/... are real subcommands: every flag after the name
        reaches the experiment."""
        assert (
            main(
                [
                    "table1",
                    "--circuits",
                    "c17",
                    "--no-gatsby",
                    "--evolution-length",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "c17" in out and "Table 1" in out


class TestCliDiagnose:
    def test_diagnose_effect_cause_table(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--circuit",
                    "c17",
                    "--patterns",
                    "32",
                    "--top-k",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "candidates (effect_cause)" in out
        assert "ranked #" in out

    def test_diagnose_signature_only(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--circuit",
                    "c17",
                    "--patterns",
                    "64",
                    "--signature-only",
                    "--min-window",
                    "8",
                    "--top-k",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bisection: window [" in out
        assert "oracle queries" in out

    def test_diagnose_explicit_fault_json(self, capsys):
        from repro.diagnosis import DiagnosisResult

        assert (
            main(
                [
                    "diagnose",
                    "--circuit",
                    "c17",
                    "--patterns",
                    "32",
                    "--fault",
                    "10/SA1",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "diagnosis_result"
        assert payload["injected"] == ["10/SA1"]
        # The extra reporting keys do not break round-tripping.
        result = decode(DiagnosisResult, payload)
        assert result.circuit_name == "c17"
        rank = payload["injected_ranks"]["10/SA1"]
        assert rank is not None and rank <= 3

    def test_diagnose_dictionary_uses_cache(self, capsys, tmp_path):
        argv = [
            "diagnose",
            "--circuit",
            "c17",
            "--patterns",
            "32",
            "--method",
            "dictionary",
            "--cache",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("objects/*/*.json")), "dictionary not persisted"
        assert main(argv) == 0  # warm run loads it back
        assert "candidates (dictionary)" in capsys.readouterr().out


class TestCliJson:
    def test_catalog_json(self, capsys):
        assert main(["catalog", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in entries}
        assert {"c17", "s27", "s15850"} <= names
        c17 = next(e for e in entries if e["name"] == "c17")
        assert c17["embedded"] is True and c17["gates"] == 6

    def test_run_json_round_trips(self, capsys):
        from repro.flow.pipeline import PipelineResult

        assert (
            main(
                [
                    "run",
                    "--circuit",
                    "c17",
                    "--evolution-length",
                    "8",
                    "--max-random-patterns",
                    "128",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        result = PipelineResult.from_dict(payload)
        assert result.circuit_name == "c17"
        assert result.n_triplets >= 1

    def test_run_exposes_new_knobs(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--circuit",
                    "c17",
                    "--evolution-length",
                    "8",
                    "--max-random-patterns",
                    "64",
                    "--backtrack-limit",
                    "100",
                    "--grasp-iterations",
                    "5",
                    "--json",
                ]
            )
            == 0
        )
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["max_random_patterns"] == 64
        assert config["backtrack_limit"] == 100
        assert config["grasp_iterations"] == 5


class TestCliSweep:
    def test_sweep_table_output(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--circuits",
                    "c17",
                    "s27",
                    "--tpgs",
                    "adder",
                    "--evolution-lengths",
                    "8",
                    "--max-random-patterns",
                    "128",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "c17" in out and "s27" in out
        assert "0/2 cells served from the artifact cache" in out

    def test_sweep_json_with_warm_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--circuits",
            "c17",
            "--tpgs",
            "adder",
            "multiplier",
            "--evolution-lengths",
            "8",
            "--max-random-patterns",
            "128",
            "--cache",
            str(tmp_path),
            "--json",
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert [c["from_cache"] for c in cold["cells"]] == [False, False]
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [c["from_cache"] for c in warm["cells"]] == [True, True]
        assert warm["cache"]["hits"] == 2
        for a, b in zip(cold["cells"], warm["cells"]):
            assert a["n_triplets"] == b["n_triplets"]
            assert a["test_length"] == b["test_length"]

    def test_sweep_forwards_every_flow_flag(self, capsys, monkeypatch):
        """The config reaching ``sweep`` carries every shared flow flag."""
        import importlib

        sweep_module = importlib.import_module("repro.flow.sweep")
        seen = {}

        def fake_sweep(circuits, tpgs, base_config=None, **kwargs):
            seen["config"] = base_config
            return sweep_module.SweepResult([])

        monkeypatch.setattr(sweep_module, "sweep", fake_sweep)
        argv = ["sweep", "--circuits", "c17", "--seed", "9", "--method", "greedy",
                "--max-random-patterns", "77", "--backtrack-limit", "12",
                "--grasp-iterations", "5"]
        assert main(argv) == 0
        capsys.readouterr()
        config = seen["config"]
        assert (config.seed, config.cover_method) == (9, "greedy")
        assert (config.max_random_patterns, config.backtrack_limit) == (77, 12)
        assert config.grasp_iterations == 5


class TestSolutionReport:
    @pytest.fixture(scope="class")
    def result(self):
        circuit = load_circuit("c17")
        return Session(circuit, PipelineConfig(evolution_length=8)).run("adder")

    def test_report_sections(self, result):
        report = solution_report(result)
        assert "per-triplet breakdown" in report
        assert "Covering statistics" in report
        assert "ATPG substrate" in report
        assert "Stage timings" in report

    def test_afc_sums_to_100(self, result):
        report = solution_report(result)
        assert "100.0" in report  # cumulative FC reaches 100%

    def test_one_row_per_triplet(self, result):
        report = solution_report(result)
        data_rows = [
            line
            for line in report.splitlines()
            if line.startswith("| ") and "delta" not in line
        ]
        assert len(data_rows) == result.n_triplets


class TestCliTrace:
    """The --trace / `repro trace` surface (acceptance: the span tree
    accounts for >=90% of the command's wall time)."""

    def test_run_trace_covers_wall_time(self, tmp_path, capsys):
        from repro.obs import validate_trace_document

        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "run",
                    "--circuit", "c17",
                    "--evolution-length", "8",
                    "--trace", str(path),
                ]
            )
            == 0
        )
        document = validate_trace_document(json.loads(path.read_text()))
        (root,) = document["spans"]
        assert root["name"] == "repro.run"
        assert root["attrs"]["circuit"] == "c17"
        child_names = {c["name"] for c in root["children"]}
        assert "session.setup" in child_names
        assert "session.run" in child_names

        def walk(span):
            yield span["name"]
            for child in span["children"]:
                yield from walk(child)

        all_names = set(walk(root))
        # The flow stages appear as descendants of session.run.
        assert {"flow.detection_matrix", "flow.set_cover", "flow.trim"} <= all_names
        covered = sum(c["seconds"] for c in root["children"])
        assert covered >= 0.9 * root["seconds"]

    def test_diagnose_trace_covers_wall_time(self, tmp_path):
        from repro.obs import validate_trace_document

        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "diagnose",
                    "--circuit", "c17",
                    "--patterns", "16",
                    "--trace", str(path),
                ]
            )
            == 0
        )
        document = validate_trace_document(json.loads(path.read_text()))
        (root,) = document["spans"]
        assert root["name"] == "repro.diagnose"
        covered = sum(c["seconds"] for c in root["children"])
        assert covered >= 0.9 * root["seconds"]
        session_span = next(
            c for c in root["children"] if c["name"] == "session.diagnose"
        )
        assert "flow.diagnosis" in {c["name"] for c in session_span["children"]}

    def test_trace_subcommand_renders_profile(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        main(
            [
                "run",
                "--circuit", "c17",
                "--evolution-length", "8",
                "--trace", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.run" in out
        assert "share" in out
        assert "flow.detection_matrix" in out

    def test_trace_subcommand_rejects_non_trace_document(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"schema_version": 3, "kind": "pipeline_result"}))
        with pytest.raises(Exception):
            main(["trace", str(path)])

    def test_run_without_trace_writes_nothing(self, tmp_path, capsys):
        assert (
            main(["run", "--circuit", "c17", "--evolution-length", "8"]) == 0
        )
        assert list(tmp_path.iterdir()) == []
