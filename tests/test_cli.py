"""Subcommand file contracts, exit codes, determinism, and report re-parsing."""

import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest

from epiclust.cli import build_parser, main, read_association_csv, read_matrix_csv
from epiclust.cluster import KMeansConfig, SpectralConfig
from epiclust.ingest import load_epicurves, load_features
from epiclust.pipeline import feature_association, temporal_stability


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert main(["synth", "--regions", "25", "--days", "120", "--k-true", "3",
                 "--seed", "0", "--out", str(out)]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


def test_synth_outputs_reparse(fixture_dir):
    m = load_epicurves(fixture_dir / "epicurves.csv", fixture_dir / "populations.csv")
    assert m.values.shape == (25, 120)
    t = load_features(fixture_dir / "features.csv", m)
    assert len(t.feature_names) == 11
    truth = json.loads((fixture_dir / "truth.json").read_text())
    assert set(truth["planted_labels"]) == set(m.region_names)


def test_stability_file_contract(fixture_dir, tmp_path):
    code = run(["stability", "--input", fixture_dir / "epicurves.csv",
                "--populations", fixture_dir / "populations.csv",
                "--prep", "none,zscore", "--algo", "spectral,kmeans",
                "--window-len", "30", "--k", "3", "--seed", "0",
                "--out", tmp_path, "--heatmap"])
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.glob("stability_*.csv"))
    assert csvs == [
        "stability_none_kmeans.csv",
        "stability_none_spectral.csv",
        "stability_zscore_kmeans.csv",
        "stability_zscore_spectral.csv",
    ]
    assert len(list(tmp_path.glob("stability_*.svg"))) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema_version"] == "1"
    assert summary["selected"]["prep"] == "none"
    assert len(summary["techniques"]) == 4
    for tech in summary["techniques"]:
        rows, cols, values = read_matrix_csv(tmp_path / tech["costs_csv"])
        assert rows == cols == ["w0", "w1", "w2", "w3"]  # 120 days / 30
        assert values.shape == (4, 4)
        assert np.array_equal(values, values.T)
        assert len(tech["balance"]) == 4


def test_stability_unreadable_input_exits_2(tmp_path, capsys):
    code = run(["stability", "--input", tmp_path / "missing.csv", "--out", tmp_path])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invalid_input_data_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("region,2020-11-15,2020-11-17\na,1,2\n")
    code = run(["stability", "--input", bad, "--out", tmp_path])
    assert code == 2
    assert "non-consecutive" in capsys.readouterr().err


def test_pipeline_error_exits_1(fixture_dir, tmp_path, capsys):
    code = run(["stability", "--input", fixture_dir / "epicurves.csv",
                "--k", "40", "--out", tmp_path])  # k > regions
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_associate_file_contract(fixture_dir, tmp_path):
    code = run(["associate", "--input", fixture_dir / "epicurves.csv",
                "--features", fixture_dir / "features.csv",
                "--prep", "none", "--algo", "kmeans", "--k", "3",
                "--trials", "100", "--seed", "7", "--out", tmp_path, "--heatmap"])
    assert code == 0
    text = (tmp_path / "association.csv").read_text().splitlines()
    assert text[0] == "feature,window,sm1,sm2_mean,sm2_std,deviation"
    assert len(text) == 1 + 11 * 4  # 11 features x 4 windows
    rows = read_association_csv(tmp_path / "association.csv")
    assert len(rows) == 44
    for row in rows:
        assert row["deviation"] == row["sm2_mean"] - row["sm1"]

    report = json.loads((tmp_path / "association.json").read_text())
    assert report["schema_version"] == "1"
    assert len(report["cells"]) == 44
    assert len(report["epidemic_labels"]) == 4
    assert (tmp_path / "association_deviation.svg").exists()

    # planted correlated features dominate the deviation column in every window
    truth = json.loads((fixture_dir / "truth.json").read_text())
    for w in range(4):
        dev = {r["feature"]: r["deviation"] for r in rows if r["window"] == w}
        best_noise = max(dev[f] for f in truth["noise_features"])
        for f in truth["correlated_features"]:
            assert dev[f] > best_noise


def test_associate_requires_features(fixture_dir, tmp_path, capsys):
    code = run(["associate", "--input", fixture_dir / "epicurves.csv", "--out", tmp_path])
    assert code == 2
    assert "--features" in capsys.readouterr().err


def test_byte_identical_reruns(fixture_dir, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["stability", "--input", fixture_dir / "epicurves.csv",
                    "--populations", fixture_dir / "populations.csv",
                    "--k", "3", "--seed", "5", "--out", out, "--heatmap"]) == 0
        assert run(["associate", "--input", fixture_dir / "epicurves.csv",
                    "--features", fixture_dir / "features.csv",
                    "--prep", "none", "--algo", "spectral",
                    "--k", "3", "--trials", "40", "--seed", "5", "--out", out]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cluster_subcommand(fixture_dir, tmp_path):
    code = run(["cluster", "--input", fixture_dir / "epicurves.csv",
                "--prep", "none", "--algo", "kmeans", "--k", "3", "--out", tmp_path])
    assert code == 0
    lines = (tmp_path / "labels.csv").read_text().splitlines()
    assert lines[0] == "region,label"
    assert len(lines) == 26
    info = json.loads((tmp_path / "clusters.json").read_text())
    assert info["algorithm"] == "kmeans" and info["k"] == 3
    assert info["balanced"] is True
    labels = [int(line.split(",")[1]) for line in lines[1:]]
    truth = json.loads((fixture_dir / "truth.json").read_text())
    from epiclust.align import best_permutation_dissimilarity

    planted = [truth["planted_labels"][line.split(",")[0]] for line in lines[1:]]
    assert best_permutation_dissimilarity(labels, planted, 3).cost == 0.0


def test_config_file_overridden_by_flags(fixture_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "trials": 5, "kmeans": {"restarts": 3}}))
    out = tmp_path / "out"
    code = run(["associate", "--input", fixture_dir / "epicurves.csv",
                "--features", fixture_dir / "features.csv",
                "--prep", "none", "--algo", "kmeans",
                "--config", cfg, "--trials", "9", "--out", out])
    assert code == 0
    report = json.loads((out / "association.json").read_text())
    assert report["k"] == 2  # from config file
    assert report["trials"] == 9  # flag wins over config


@pytest.mark.parametrize(
    "config, named",
    [
        ({"windowlen": 7}, "config key 'windowlen'"),
        ({"kmeans": {"restarts": 3, "seed": 1}}, "config section 'kmeans' key 'seed'"),
        ({"spectral": {"sigma": 2.0, "lap": "unnormalized"}}, "config section 'spectral' key 'lap'"),
        ({"trials": 5}, "config key 'trials'"),
    ],
    ids=["top_level", "kmeans", "spectral", "flag_of_another_subcommand"],
)
def test_unknown_config_key_exits_2(fixture_dir, tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = run(["stability", "--input", fixture_dir / "epicurves.csv",
                "--config", cfg, "--out", out])
    assert code == 2
    assert f"unknown {named}" in capsys.readouterr().err
    assert not out.exists()


def test_matrix_csv_roundtrip(tmp_path):
    from epiclust.cli import write_matrix_csv

    values = np.array([[0.0, 0.125], [0.125, 0.0]])
    path = tmp_path / "m.csv"
    write_matrix_csv(values, ["w0", "w1"], ["w0", "w1"], path, corner="window")
    rows, cols, back = read_matrix_csv(path)
    assert rows == ["w0", "w1"] and cols == ["w0", "w1"]
    assert np.array_equal(back, values)


@pytest.mark.parametrize("command", ["cluster", "associate"])
@pytest.mark.parametrize("flag, names", [("--prep", "none,zscore"), ("--algo", "kmeans,spectral")])
def test_single_technique_rejects_name_list(fixture_dir, tmp_path, capsys, command, flag, names):
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    code = run([command, "--input", fixture_dir / "epicurves.csv", *features,
                flag, names, "--out", out])
    assert code == 2
    assert f"{flag} takes exactly one name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "stability", "associate"])
def test_k_zero_exits_1(fixture_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    code = run([command, "--input", fixture_dir / "epicurves.csv", *features,
                "--k", "0", "--out", out])
    assert code == 1
    assert "k must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("stability", '{"k": "abc"}', "config key 'k'"),
        ("stability", '{"k": 2.7}', "config key 'k'"),
        ("stability", '{"metric": "bogus"}', "config key 'metric'"),
        ("stability", '{"prep_scope": "bogus"}', "config key 'prep_scope'"),
        ("stability", '{"prep": ["none"]}', "config key 'prep'"),
        ("stability", '{"kmeans": {"restarts": true}}', "config section 'kmeans' key 'restarts'"),
        ("stability", '{"k": 3,}', "cfg.json: not a valid JSON config"),
        ("stability", '{"window_len": 0}', "config key 'window_len': '0': expected"),
        ("stability", '{"balance_threshold": 2}', "config key 'balance_threshold': '2': expected"),
        ("stability", '{"kmeans": {"epsilon": 0}}', "'kmeans' key 'epsilon': '0': expected"),
        ("stability", '{"kmeans": {"max_iters": 0}}', "'kmeans' key 'max_iters': '0': expected"),
        ("stability", '{"kmeans": {"restarts": 0}}', "'kmeans' key 'restarts': '0': expected"),
        ("stability", '{"spectral": {"sigma": -3}}', "'spectral' key 'sigma': '-3': expected"),
        ("associate", '{"trials": 0}', "config key 'trials': '0': expected an integer >= 1"),
        ("stability", '{"spectral": {"sigma": "inf"}}', "'spectral' key 'sigma': 'inf': expected"),
        ("cluster", '{"kmeans": {"epsilon": 1e999}}', "'kmeans' key 'epsilon': 'inf': expected"),
        ("stability", '{"seed": -1}', "config key 'seed': '-1': expected an integer >= 0"),
    ],
    ids=["k_text", "k_fraction", "metric", "prep_scope", "prep_list", "restarts_bool", "not_json",
         "window_len_zero", "balance_threshold_above_1", "epsilon_zero", "max_iters_zero",
         "restarts_zero", "sigma_negative", "trials_zero", "sigma_inf", "epsilon_inf",
         "seed_negative"],
)
def test_bad_config_value_exits_2(fixture_dir, tmp_path, capsys, command, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    code = run([command, "--input", fixture_dir / "epicurves.csv", *features,
                "--config", cfg, "--out", out])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings",
    [
        ("stability", {"window_len": 40, "k": 2, "prep": "none,zscore", "algo": "spectral,kmeans",
                       "seed": 3, "metric": "mismatch", "balance_threshold": 0.9,
                       "prep_scope": "full_series",
                       "kmeans": {"epsilon": 1e-5, "max_iters": 50, "restarts": 2},
                       "spectral": {"sigma": 250.0, "laplacian": "symmetric_normalized"}}),
        ("associate", {"window_len": 60, "k": 2, "prep": "zscore", "algo": "kmeans", "trials": 20,
                       "seed": 4, "baseline_mode": "shuffle", "kmeans": {"restarts": 3}}),
        ("cluster", {"k": 4, "prep": "minmax_row", "algo": "spectral", "seed": 1,
                     "spectral": {"sigma": "median", "laplacian": "symmetric_normalized"}}),
    ],
)
def test_config_file_writes_what_the_same_flags_write(fixture_dir, tmp_path, command, settings):
    """Each config key reaches the setting of the flag that declares it."""
    flat = {**settings, **settings.get("kmeans", {}), **settings.get("spectral", {})}
    flags = [arg for key, value in flat.items() if key not in ("kmeans", "spectral")
             for arg in (f"--{key.replace('_', '-')}", str(value))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**settings, "out": str(tmp_path / "from_config")}))
    inputs = ["--input", fixture_dir / "epicurves.csv",
              "--populations", fixture_dir / "populations.csv"]
    if command == "associate":
        inputs += ["--features", fixture_dir / "features.csv"]
    assert run([command, *inputs, "--config", cfg]) == 0
    assert run([command, *inputs, *flags, "--out", tmp_path / "from_flags"]) == 0
    names = sorted(p.name for p in (tmp_path / "from_config").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "from_flags").iterdir())
    for name in names:
        assert (tmp_path / "from_config" / name).read_bytes() == (
            tmp_path / "from_flags" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "command, argv",
    [
        ("cluster", ["--window-len", "7"]),
        ("cluster", ["--trials", "5"]),
        ("cluster", ["--metric", "mismatch"]),
        ("cluster", ["--prep-scope", "full_series"]),
        ("cluster", ["--baseline-mode", "shuffle"]),
        ("cluster", ["--heatmap"]),
        ("stability", ["--trials", "5"]),
        ("stability", ["--baseline-mode", "shuffle"]),
        ("stability", ["--sigma", "wide"]),
        ("stability", ["--prep", ","]),
        ("stability", ["--algo", "kmeans,bogus"]),
        ("associate", ["--prep", " "]),
        ("cluster", ["--balance-threshold", "0"]),
        ("stability", ["--balance-threshold", "1.5"]),
        ("cluster", ["--epsilon", "0"]),
        ("stability", ["--epsilon", "nan"]),
        ("cluster", ["--max-iters", "0"]),
        ("associate", ["--restarts", "-1"]),
        ("stability", ["--window-len", "0"]),
        ("associate", ["--trials", "0"]),
        ("cluster", ["--sigma", "-3"]),
        ("stability", ["--sigma", "0"]),
        ("cluster", ["--sigma", "inf"]),
        ("stability", ["--epsilon", "inf"]),
        ("associate", ["--seed", "-1"]),
        ("synth", ["--seed", "-1"]),
    ],
    ids=["cluster_window_len", "cluster_trials", "cluster_metric", "cluster_prep_scope",
         "cluster_baseline_mode", "cluster_heatmap", "stability_trials",
         "stability_baseline_mode", "sigma_text", "prep_empty_list", "algo_unknown_name",
         "associate_prep_blank", "balance_threshold_zero", "balance_threshold_above_1",
         "epsilon_zero", "epsilon_nan", "max_iters_zero", "restarts_negative",
         "window_len_zero", "trials_zero", "sigma_negative", "sigma_zero", "sigma_inf",
         "epsilon_inf", "seed_negative", "synth_seed_negative"],
)
def test_usage_error_exits_2_naming_the_flag(fixture_dir, tmp_path, capsys, command, argv):
    """A flag the subcommand does not declare, or a value its type rejects."""
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", fixture_dir / "epicurves.csv", *argv, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, argv",
    [
        ("cluster", ["--prep", "population"]),
        ("stability", []),  # the default --prep list includes population
        ("associate", ["--prep", "population"]),
    ],
    ids=["cluster", "stability", "associate"],
)
def test_population_prep_without_populations_exits_2(
    fixture_dir, tmp_path, capsys, monkeypatch, command, argv
):
    """Fails before any window is clustered, naming both flags."""
    def no_clustering(*args):
        raise AssertionError("clustered before the --prep check")

    monkeypatch.setattr("epiclust.cli._cluster_window", no_clustering)
    monkeypatch.setattr("epiclust.pipeline._cluster_window", no_clustering)
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    code = run([command, "--input", fixture_dir / "epicurves.csv", *features, *argv,
                "--out", out])
    assert code == 2
    assert "--prep population needs --populations" in capsys.readouterr().err
    assert not out.exists()


def test_associate_k9(fixture_dir, tmp_path):
    """k above the old k! scan limit runs through the same alignment search."""
    code = run(["associate", "--input", fixture_dir / "epicurves.csv",
                "--features", fixture_dir / "features.csv", "--prep", "none",
                "--algo", "kmeans", "--k", "9", "--trials", "10", "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "association.json").read_text())
    assert report["k"] == 9
    assert all(sorted(c["permutation"]) == list(range(9)) for c in report["cells"])


@pytest.mark.parametrize("command", ["synth", "cluster", "stability", "associate"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: epiclust {command}")


@pytest.mark.parametrize(
    "command, study",
    [("cluster", None), ("stability", temporal_stability), ("associate", feature_association)],
)
def test_parser_defaults_mirror_library_defaults(command, study):
    args = vars(build_parser().parse_args([command, "--input", "epicurves.csv"]))
    expected = {**asdict(KMeansConfig()), **asdict(SpectralConfig())}
    if study is not None:
        params = inspect.signature(study).parameters.values()
        expected.update({p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY})
    assert {key: args[key] for key in expected} == expected
