from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import results_table_from_json
from review_calib import (
    ConfigurationError,
    DiscreteDistribution,
    ExperimentConfig,
    GenConfig,
    run_experiment,
    scaled_config,
)
from review_calib import bench
from review_calib.bench import FORMATS, METHODS, _run_cell, emit_results
from review_calib.estimators import build_owner_partition
from review_calib.conference import DEFAULT_MASTER_SEED, gen_conference
from review_calib.scoring import NOISE_CASES
from review_calib.seeding import PURPOSE_CONFERENCE, stream


@pytest.fixture(scope="module")
def small_experiment():
    return ExperimentConfig(
        gen=scaled_config(GenConfig(), 150),
        cases=("Base", "NoBias"),
        repetitions=3,
    )


@pytest.fixture(scope="module")
def small_table(small_experiment):
    return run_experiment(small_experiment)


def test_table_shape_and_methods(small_table):
    assert small_table.cases == ("Base", "NoBias")
    assert small_table.methods == METHODS
    assert small_table.mean_rmse.shape == (2, 4)
    assert np.all(small_table.mean_rmse > 0)
    assert np.all(small_table.sd_rmse >= 0)


def test_single_repetition_has_zero_sd(small_experiment):
    from dataclasses import replace

    table = run_experiment(replace(small_experiment, repetitions=1))
    assert np.all(table.sd_rmse == 0.0)


def test_runs_are_deterministic(small_experiment, small_table):
    again = run_experiment(small_experiment)
    assert again.to_csv() == small_table.to_csv()


def test_worker_count_does_not_change_results(small_experiment, small_table):
    parallel = run_experiment(small_experiment, workers=2)
    assert parallel.to_csv() == small_table.to_csv()


def test_worker_pool_is_capped_at_the_cell_count(small_experiment, monkeypatch):
    # a pool forks every worker it is given, so 64 workers on 2 cells must ask for 2
    asked = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            super().__init__(min(max_workers, 2), **kwargs)

    monkeypatch.setattr("review_calib.bench.ProcessPoolExecutor", Recording)
    one_cell = replace(small_experiment, cases=("Base",), repetitions=1)
    assert run_experiment(one_cell, workers=64).to_csv() == run_experiment(one_cell).to_csv()
    assert asked == []
    two_cells = replace(one_cell, repetitions=2)
    assert run_experiment(two_cells, workers=64).to_csv() == run_experiment(two_cells).to_csv()
    assert asked == [2]


@pytest.mark.parametrize("workers", ["2", None, 2.5, True], ids=["string", "none", "fractional", "bool"])
def test_untyped_worker_count_is_refused_before_generation(workers, monkeypatch):
    def generate(*args):
        raise AssertionError("a conference was generated")

    monkeypatch.setattr(bench, "gen_conference", generate)
    with pytest.raises(ConfigurationError, match="workers must be an integer"):
        run_experiment(ExperimentConfig(), workers=workers)


def test_in_process_run_leaves_no_worker_state(small_experiment, monkeypatch):
    # left filled, the worker globals keep the conference alive until the next run
    one_cell = replace(small_experiment, cases=("Base",), repetitions=1)
    run_experiment(one_cell, workers=1)
    assert bench._WORKER == {}

    def failing(*args):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(bench, "_run_cell", failing)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_experiment(one_cell, workers=1)
    assert bench._WORKER == {}


def test_concurrent_in_process_runs_keep_their_own_state():
    # cells that read module state would see another thread's conference; more threads than
    # cores and a short switch interval make the threads interleave
    configs = [
        ExperimentConfig(gen=scaled_config(GenConfig(), n), cases=("Base", "NoBias"), repetitions=2)
        for n in (250, 300, 350)
    ]
    alone = [run_experiment(config).to_csv() for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(len(configs)) as threads:
                runs = threads.map(run_experiment, configs, timeout=120)
                assert [table.to_csv() for table in runs] == alone
    finally:
        sys.setswitchinterval(interval)
    assert bench._WORKER == {}


def test_repetition_streams_are_isolated(small_experiment, small_table):
    # cells are addressed by repetition index, so the aggregate over k
    # repetitions is exactly the mean of the first k per-cell results
    config = small_experiment
    seed = config.effective_seed
    conference = gen_conference(config.gen, stream(seed, PURPOSE_CONFERENCE))
    state = (conference, build_owner_partition(conference), seed, config.blend)
    cells = np.asarray([_run_cell(*state, ("Base", 0, rep)) for rep in range(config.repetitions)])
    assert np.allclose(cells.mean(axis=0), small_table.mean_rmse[0], atol=1e-12)
    from dataclasses import replace

    shorter = run_experiment(replace(config, repetitions=2))
    assert np.allclose(cells[:2].mean(axis=0), shorter.mean_rmse[0], atol=1e-12)


def test_case_subset_reproduces_full_run_column(small_experiment, small_table):
    from dataclasses import replace

    base_only = run_experiment(replace(small_experiment, cases=("Base",)))
    assert np.array_equal(base_only.mean_rmse[0], small_table.mean_rmse[0])
    assert np.array_equal(base_only.sd_rmse[0], small_table.sd_rmse[0])


def test_csv_shape(small_table, tmp_path):
    path = tmp_path / "out.csv"
    emit_results(small_table, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "case,method,mean_rmse,sd_rmse"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert first[0] == "Base" and first[1] == "average"
    assert float(first[2]) == small_table.mean_rmse[0, 0]


def test_json_round_trip_is_exact(small_table, tmp_path):
    path = tmp_path / "out.json"
    emit_results(small_table, "json", str(path))
    parsed = results_table_from_json(json.loads(path.read_text()))
    assert parsed.cases == small_table.cases
    assert parsed.methods == small_table.methods
    assert np.array_equal(parsed.mean_rmse, small_table.mean_rmse)
    assert np.array_equal(parsed.sd_rmse, small_table.sd_rmse)
    assert parsed.repetitions == small_table.repetitions
    assert parsed.master_seed == small_table.master_seed


def test_text_table_marks_column_minimum(small_table, tmp_path):
    path = tmp_path / "out.txt"
    emit_results(small_table, "table", str(path))
    lines = path.read_text().splitlines()
    body = lines[1 : 1 + len(METHODS)]
    assert sum(row.count("*") for row in body) == len(small_table.cases)
    best = int(small_table.mean_rmse[0].argmin())  # best method of the first case
    first_cell = body[best][22:38]
    assert "*" in first_cell


def test_unwritable_path_raises_oserror(small_table):
    with pytest.raises(OSError, match="no/such/dir"):
        emit_results(small_table, "csv", "no/such/dir/out.csv")


def test_config_validation_errors():
    with pytest.raises(ConfigurationError, match="repetitions"):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigurationError, match="noise case"):
        ExperimentConfig(cases=("Base", "Bogus"))
    with pytest.raises(ConfigurationError, match="case"):
        ExperimentConfig(cases=())
    with pytest.raises(ConfigurationError, match="noise case 'Base' is named twice"):
        ExperimentConfig(cases=("Base", "base", "BASE"))
    with pytest.raises(ConfigurationError, match="blend"):
        ExperimentConfig(blend=2.0)
    with pytest.raises(ConfigurationError, match="output_format"):
        ExperimentConfig(output_format="xml")


def test_config_stores_canonical_case_names():
    assert ExperimentConfig(cases=("base", "no-bias")).cases == ("Base", "NoBias")


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("repetitions", 2.5, "repetitions must be an integer", id="repetitions-fractional"),
        pytest.param("repetitions", "3", "repetitions must be an integer", id="repetitions-string"),
        pytest.param("blend", "0.5", "blend must be a finite number", id="blend-string"),
        pytest.param("blend", None, "blend must be a finite number", id="blend-none"),
        pytest.param("output_path", 5, "output_path must be a string", id="output-path-number"),
        pytest.param("output_format", 5, "output_format must be one of", id="output-format-number"),
        pytest.param("cases", ["Base"], "cases must be a tuple of names", id="cases-list"),
        pytest.param("cases", ("Base", 5), "cases must be a tuple of names", id="cases-non-string"),
        pytest.param("cases", "Base", "cases must be a tuple of names", id="cases-string"),
        pytest.param("gen", {"n_papers": 5}, "gen must be a GenConfig", id="gen-dict"),
    ],
)
def test_python_built_experiment_config_is_typed(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(**{field: value})


def test_python_built_experiment_config_stores_typed_values():
    config = ExperimentConfig(repetitions=np.int64(3), blend=1, master_seed=np.uint32(7))
    assert type(config.repetitions) is int and config.repetitions == 3
    assert type(config.blend) is float and config.blend == 1.0
    assert type(config.master_seed) is int and config.master_seed == 7


def test_master_seed_has_one_integer_rule():
    # stream types its seed as ExperimentConfig does: an integral float is the same seed
    assert stream(7.0, PURPOSE_CONFERENCE).integers(2**32, size=4).tolist() == (
        stream(7, PURPOSE_CONFERENCE).integers(2**32, size=4).tolist()
    )
    for seed in ("7", True, 2.5, None):
        with pytest.raises(ConfigurationError, match="master seed must be an integer"):
            stream(seed, PURPOSE_CONFERENCE)
    with pytest.raises(ConfigurationError, match="master seed must fit in 64 bits"):
        stream(-1, PURPOSE_CONFERENCE)


_DEFAULT_CONFIG_JSON = (
    '{"gen": {"n_papers": 6538, "n_authors": 18535, "author_multiplicity_targets": '
    '[[2, 4505], [5, 508], [10, 74], [15, 26]], "authors_per_paper_dist": '
    '{"values": [1, 8], "probs": [0.553, 0.447]}, "reviewers_per_paper_dist": '
    '{"values": [3, 4], "probs": [0.5, 0.5]}, "reviewer_capacity_dist": '
    '{"values": [2], "probs": [1.0]}, "n_reviewers": null, "capacity_slack": 1.05, '
    '"true_score_mean": 5.0, "true_score_sd": 0.88}, "cases": ["Base", "NoBias", '
    '"NoVariance", "BigBias", "BigVariance"], "repetitions": 10, "blend": 0.5, '
    '"master_seed": null, "output_path": null, "output_format": "table"}'
)


def test_default_config_json_is_pinned():
    obj = ExperimentConfig().to_json()
    assert json.dumps(obj) == _DEFAULT_CONFIG_JSON
    # plain JSON values throughout: a tuple left in would compare unequal to its list
    assert obj == json.loads(_DEFAULT_CONFIG_JSON)


def test_experiment_config_json_round_trip():
    config = ExperimentConfig(
        gen=scaled_config(GenConfig(), 100),
        cases=("NoBias",),
        repetitions=2,
        blend=0.25,
        master_seed=7,
        output_path="x.csv",
        output_format="csv",
    )
    clone = ExperimentConfig.from_json(config.to_json())
    assert clone == config
    with pytest.raises(ConfigurationError, match="unknown"):
        ExperimentConfig.from_json({"casez": []})


def _counts(lo, hi):
    """An int drawn as a Python int, an integral float or a numpy int."""
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from([n, float(n), np.int64(n)]))


@st.composite
def _distributions(draw):
    values = sorted(draw(st.sets(st.integers(1, 50), min_size=1, max_size=5)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values), max_size=len(values)))
    return DiscreteDistribution(tuple(values), tuple(w / sum(weights) for w in weights))


@st.composite
def _gen_configs(draw):
    n_authors = draw(st.integers(1, 10**5))
    n_papers = draw(_counts(1, 10**5))
    # a threshold with a positive count must be at most n_papers, and no count may reach n_authors
    top = min(40, int(n_papers))
    thresholds = sorted(draw(st.sets(st.integers(2, top), max_size=4))) if top >= 2 else []
    counts = draw(st.lists(st.integers(0, n_authors - 1), min_size=len(thresholds), max_size=len(thresholds)))
    return GenConfig(
        n_papers=n_papers,
        n_authors=n_authors,
        author_multiplicity_targets=tuple(zip(thresholds, sorted(counts, reverse=True))),
        authors_per_paper_dist=draw(_distributions()),
        reviewers_per_paper_dist=draw(_distributions()),
        reviewer_capacity_dist=draw(_distributions()),
        n_reviewers=draw(st.none() | _counts(1, 10**5)),
        capacity_slack=draw(st.floats(1.0, 10.0) | _counts(1, 10)),
        true_score_mean=draw(st.floats(-100.0, 100.0)),
        true_score_sd=draw(st.floats(0.01, 10.0)),
    )


@st.composite
def _experiment_configs(draw):
    return ExperimentConfig(
        gen=draw(_gen_configs()),
        cases=tuple(draw(st.lists(st.sampled_from(sorted(NOISE_CASES)), min_size=1, unique=True))),
        repetitions=draw(_counts(1, 100)),
        blend=draw(st.floats(0.0, 1.0)),
        master_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        output_path=draw(st.none() | st.text(max_size=8)),
        output_format=draw(st.sampled_from(FORMATS)),
    )


@settings(max_examples=60, deadline=None)
@given(config=_experiment_configs())
def test_config_json_round_trip_property(config):
    # the JSON-built config equals the Python-built one, and its values have the same types
    for built in (config, config.gen, config.gen.reviewer_capacity_dist):
        obj = json.loads(json.dumps(built.to_json()))
        clone = type(built).from_json(obj)
        assert clone == built
        assert json.dumps(clone.to_json()) == json.dumps(obj)


def test_effective_seed_prefers_explicit():
    config = ExperimentConfig(master_seed=9)
    assert config.effective_seed == 9
    assert ExperimentConfig().effective_seed == DEFAULT_MASTER_SEED
