from __future__ import annotations

import json
from dataclasses import fields

import pytest

from review_calib import ExperimentConfig, GenConfig, GenerationError, bench, scaled_config
from review_calib.cli import EXIT_CONFIG, EXIT_GENERATION, EXIT_IO, EXIT_OK, build_parser, main


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    config = ExperimentConfig(
        gen=scaled_config(GenConfig(), 120),
        cases=("Base",),
        repetitions=2,
    )
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    path.write_text(json.dumps(config.to_json()))
    return str(path)


def test_every_config_flag_stores_into_its_config_field():
    # the override step copies only the dests that name a field; any other would be dropped
    allowed = {f.name for f in fields(ExperimentConfig)} | {"config", "workers", "help"}
    dests = {action.dest for action in build_parser()._actions}
    assert dests - allowed == set()


def test_successful_run_writes_csv(config_path, tmp_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    out = tmp_path / "results.csv"
    code = main(["--config", config_path, "--out", str(out), "--format", "csv"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "case,method,mean_rmse,sd_rmse"
    assert len(lines) == 5


def test_stdout_table_by_default(config_path, capsys, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    assert main(["--config", config_path, "--reps", "1"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "method" in captured and "Base" in captured


def test_flag_overrides_and_seed_in_output(config_path, tmp_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    out = tmp_path / "results.json"
    code = main(
        ["--config", config_path, "--seed", "7", "--cases", "NoBias", "--reps", "1",
         "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["master_seed"] == 7
    assert payload["repetitions"] == 1
    assert {row["case"] for row in payload["results"]} == {"NoBias"}


def test_env_seed_overrides_flag(config_path, tmp_path, monkeypatch):
    out = tmp_path / "results.json"
    monkeypatch.setenv("REVIEW_CALIB_SEED", "99")
    code = main(["--config", config_path, "--seed", "7", "--reps", "1",
                 "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["master_seed"] == 99


def test_bad_env_seed_is_config_error(config_path, monkeypatch):
    monkeypatch.setenv("REVIEW_CALIB_SEED", "not-a-number")
    assert main(["--config", config_path]) == EXIT_CONFIG


def test_missing_config_file_is_config_error(monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    assert main(["--config", "does-not-exist.json"]) == EXIT_CONFIG


def test_unknown_case_is_config_error(config_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    assert main(["--config", config_path, "--cases", "Nope"]) == EXIT_CONFIG


def test_generation_infeasibility_exit_code(tmp_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    gen = scaled_config(GenConfig(), 80).to_json()
    gen["n_reviewers"] = 2
    config = {"gen": gen, "cases": ["Base"], "repetitions": 1}
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_GENERATION


def test_dealing_exhaustion_exit_code(tmp_path, monkeypatch, capsys):
    # seed 0 draws multiplicities [2, 1, 2] and paper loads [4, 1]: two authors want
    # both papers, but paper 1 has one authorship slot, so every dealing strands
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    gen = {
        "n_papers": 2,
        "n_authors": 3,
        "author_multiplicity_targets": [[2, 2]],
        "authors_per_paper_dist": {"values": [1, 4], "probs": [0.5, 0.5]},
    }
    config = {"gen": gen, "cases": ["Base"], "repetitions": 1, "master_seed": 0}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_GENERATION
    assert "authorship dealing failed after 20 retries" in capsys.readouterr().err


def test_unwritable_output_exit_code(config_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    code = main(["--config", config_path, "--reps", "1",
                 "--out", "no/such/dir/results.csv"])
    assert code == EXIT_IO


def test_byte_identical_reruns(config_path, tmp_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = main(["--config", config_path, "--out", str(path), "--format", "csv"])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_negative_seed_is_config_error(config_path, monkeypatch):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    assert main(["--config", config_path, "--seed", "-1"]) == EXIT_CONFIG


def test_zero_workers_is_config_error(config_path, monkeypatch, capsys):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    assert main(["--config", config_path, "--workers", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "configuration error: workers must be >= 1, got 0\n"
    assert captured.out == ""


_BAD_CONFIGS = {
    "n-papers-string": {"gen": {"n_papers": "abc"}},
    "n-papers-null": {"gen": {"n_papers": None}},
    "n-papers-fractional": {"gen": {"n_papers": 80.7}},
    "n-papers-bool": {"gen": {"n_papers": True}},
    "gen-not-an-object": {"gen": [1, 2]},
    "capacity-fractional": {"gen": {"reviewer_capacity_dist": {"values": [2.5], "probs": [1.0]}}},
    "probability-string": {"gen": {"reviewer_capacity_dist": {"values": [2], "probs": ["1"]}}},
    "targets-not-pairs": {"gen": {"author_multiplicity_targets": [[2, 4505, 1]]}},
    "targets-fractional": {"gen": {"author_multiplicity_targets": [[2.5, 4505]]}},
    "targets-count-string": {"gen": {"author_multiplicity_targets": [[2, "4505"]]}},
    "targets-not-a-list": {"gen": {"author_multiplicity_targets": 2}},
    "probability-not-a-number": {"gen": {"reviewer_capacity_dist": {"values": [2], "probs": [float("nan")]}}},
    "value-bool": {"gen": {"reviewer_capacity_dist": {"values": [True], "probs": [1.0]}}},
    "distribution-unknown-key": {"gen": {"reviewer_capacity_dist": {"values": [2], "probs": [1.0], "p": 1}}},
    "distribution-missing-probs": {"gen": {"reviewer_capacity_dist": {"values": [2]}}},
    "distribution-not-an-object": {"gen": {"reviewer_capacity_dist": [2]}},
    "cases-repeated": {"cases": ["Base", "base", "BASE"]},
    # each 512-draw capacity chunk sums to 0 in int64, and the reviewer pool loop never ends
    "dist-capacity-2**62": {"gen": {"reviewer_capacity_dist": {"values": [2**62], "probs": [1.0]}}},
    "slack-infinite": {"gen": {"capacity_slack": float("inf")}},
    # the capacity target overflows to inf, and the reviewer pool loop never ends
    "slack-huge": {"gen": {"capacity_slack": 1e308}},
    "mean-infinite": {"gen": {"true_score_mean": float("inf")}},
    "mean-not-a-number": {"gen": {"true_score_mean": float("nan")}},
    "gen-master-seed": {"gen": {"master_seed": 9}},
    "repetitions-fractional": {"repetitions": 2.9},
    "repetitions-bool": {"repetitions": True},
    "master-seed-string": {"master_seed": "7"},
    "blend-string": {"blend": "half"},
    "cases-not-a-list": {"cases": 5},
    "config-not-an-object": [1, 2],
    "output-path-number": {"output_path": 5},
    "output-path-list": {"output_path": ["a"]},
    "output-format-number": {"output_format": 5},
    "output-format-list": {"output_format": ["csv"]},
    "threshold-above-n-papers-10-authors": {
        "gen": {"n_papers": 1, "n_authors": 10, "author_multiplicity_targets": [[2, 1]]}
    },
    "threshold-above-n-papers-1000-authors": {
        "gen": {"n_papers": 1, "n_authors": 1000, "author_multiplicity_targets": [[2, 100]]}
    },
    "first-count-every-author": {
        "gen": {"n_papers": 50, "n_authors": 10, "author_multiplicity_targets": [[2, 10]]}
    },
    # scores so large that the squared errors overflow: inf or nan RMSEs, or a crash
    **{
        f"score-scale-{field}-{value:g}": {
            "gen": {"n_papers": 300, "n_authors": 850, "author_multiplicity_targets": [[2, 200]], field: value},
            "cases": ["Base"],
            "repetitions": 1,
        }
        for field, value in [
            ("true_score_sd", 1e160),
            ("true_score_sd", 1e200),
            ("true_score_sd", 1e307),
            ("true_score_mean", 1e308),
        ]
    },
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_malformed_config_value_is_config_error(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # an accepted output path must not land in the working directory
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_BAD_CONFIGS[case]))
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize(
    "case",
    [
        c
        for c in sorted(_BAD_CONFIGS)
        if c.startswith(("threshold-", "first-count-", "score-scale-", "slack-", "dist-"))
    ],
)
def test_unmeetable_config_is_refused_before_generation(case, tmp_path, monkeypatch, capsys):
    def generate(*args):
        raise GenerationError("a conference was generated")

    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    monkeypatch.setattr(bench, "gen_conference", generate)
    path = tmp_path / "unmeetable.json"
    path.write_text(json.dumps(_BAD_CONFIGS[case]))
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"repetitions": 2, "repetitions": 1, "cases": ["Base"]}', "repetitions"),
        ('{"cases": ["Base"], "gen": {"n_papers": 120, "n_papers": 80}}', "n_papers"),
    ],
    ids=["top-level", "nested"],
)
def test_repeated_config_key_is_config_error(text, key, tmp_path, monkeypatch, capsys):
    # json.load alone keeps the last of two equal keys and runs with it
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main(["--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: config repeats the key {key!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf-8", "nested-too-deep"]
)
def test_unreadable_config_is_config_error(data, tmp_path, monkeypatch, capsys):
    # json.load raises UnicodeDecodeError and RecursionError here, not JSONDecodeError
    monkeypatch.delenv("REVIEW_CALIB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert main(["--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: cannot read config {path}: ")
    assert captured.out == ""


def test_integral_float_config_values_are_accepted():
    config = ExperimentConfig.from_json({"repetitions": 2.0, "gen": {"n_papers": 80.0}})
    assert config.repetitions == 2 and type(config.repetitions) is int
    assert config.gen.n_papers == 80 and type(config.gen.n_papers) is int
