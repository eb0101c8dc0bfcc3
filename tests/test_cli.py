"""Subcommand file contracts, exit codes, determinism, and report re-parsing."""

import inspect
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from epiclust.cli import build_parser, main
from epiclust.cluster import ALGORITHMS, KMeansConfig, SpectralConfig
from epiclust.ingest import _write_table, load_epicurves, load_features
from epiclust.pipeline import feature_association, temporal_stability
from epiclust.preprocess import PREPROCESS_KINDS
from report_readers import read_association_csv, read_matrix_csv


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


def test_synth_without_features_exits_1_writing_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["synth", "--correlated", "0", "--noise", "0", "--out", out]) == 1
    assert "got n_correlated=0, n_noise=0" in capsys.readouterr().err
    assert not out.exists()


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
    assert summary["schema_version"] == "4"
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
    assert report["schema_version"] == "4"
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


def test_heatmap_labels_keep_xml_special_characters(fixture_dir, tmp_path):
    """A feature name from the features.csv header is XML-escaped in the SVG,
    which then parses and gives the name back."""
    header, *rows = (fixture_dir / "features.csv").read_text().splitlines(keepends=True)
    names = header.rstrip("\n").split(",")
    features = tmp_path / "features.csv"
    features.write_text(",".join([*names[:-1], "R&D <share>"]) + "\n" + "".join(rows))
    out = tmp_path / "out"
    assert run(["associate", "--input", fixture_dir / "epicurves.csv", "--features", features,
                "--prep", "none", "--algo", "kmeans", "--trials", "5", "--out", out,
                "--heatmap"]) == 0
    root = ET.parse(out / "association_deviation.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "R&D <share>" in texts and names[-2] in texts


@pytest.mark.parametrize("bad", ["repeated", "empty"])
def test_repeated_or_empty_feature_name_exits_2(fixture_dir, tmp_path, capsys, bad):
    """Each feature is reported by its header name, so a name that repeats
    another, or is empty, stops the run before any report is written."""
    header, *rows = (fixture_dir / "features.csv").read_text().splitlines(keepends=True)
    names = header.rstrip("\n").split(",")
    name, problem = (names[1], f"duplicate feature: {names[1]!r}") if bad == "repeated" else ("", "empty feature name")
    features = tmp_path / "features.csv"
    features.write_text(",".join([*names[:-1], name]) + "\n" + "".join(rows))
    out = tmp_path / "out"
    assert run(["associate", "--input", fixture_dir / "epicurves.csv", "--features", features,
                "--prep", "none", "--algo", "kmeans", "--trials", "5", "--out", out]) == 2
    assert f"{features}: {problem} at header column {len(names)}" in capsys.readouterr().err
    assert not out.exists()


def test_associate_requires_features(fixture_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["associate", "--input", fixture_dir / "epicurves.csv", "--out", tmp_path])
    assert exc.value.code == 2
    assert "--features" in capsys.readouterr().err


def test_associate_without_features_exits_2_before_reading_the_input(tmp_path, capsys):
    # argparse rejects the missing flag, so the input that does not exist is
    # never opened and the error names --features, not the file
    with pytest.raises(SystemExit) as exc:
        run(["associate", "--input", tmp_path / "missing.csv", "--out", tmp_path / "out"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--features" in err and "missing.csv" not in err
    assert not (tmp_path / "out").exists()


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


def test_each_fact_reported_once(fixture_dir, tmp_path):
    """Labels live only in labels.csv; association.csv repeats association.json exactly."""
    assert run(["cluster", "--input", fixture_dir / "epicurves.csv",
                "--prep", "none", "--algo", "kmeans", "--out", tmp_path]) == 0
    assert "labels" not in json.loads((tmp_path / "clusters.json").read_text())
    regions = [line.split(",")[0] for line in (tmp_path / "labels.csv").read_text().splitlines()]
    assert sorted(regions[1:]) == sorted(load_epicurves(fixture_dir / "epicurves.csv").region_names)

    assert run(["associate", "--input", fixture_dir / "epicurves.csv",
                "--features", fixture_dir / "features.csv", "--prep", "none",
                "--algo", "kmeans", "--trials", "20", "--out", tmp_path]) == 0
    rows = read_association_csv(tmp_path / "association.csv")
    cells = json.loads((tmp_path / "association.json").read_text())["cells"]
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        assert row == {key: cell[key] for key in row}


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
    values = np.array([[0.0, 0.125], [0.125, 0.0]])
    path = tmp_path / "m.csv"
    _write_table(path, ["window", "w0", "w1"], ["w0", "w1"], values)
    rows, cols, back = read_matrix_csv(path)
    assert rows == ["w0", "w1"] and cols == ["w0", "w1"]
    assert np.array_equal(back, values)


@pytest.mark.parametrize("command", ["cluster", "associate"])
@pytest.mark.parametrize("flag, names", [("--prep", "none,zscore"), ("--algo", "kmeans,spectral")])
def test_single_technique_rejects_name_list(fixture_dir, tmp_path, capsys, command, flag, names):
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    argv = [command, "--input", fixture_dir / "epicurves.csv", *features, "--out", out]
    with pytest.raises(SystemExit) as exc:
        run([*argv, flag, names])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {names!r}: this subcommand takes exactly one name" in err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: names}))
    assert run([*argv, "--config", cfg]) == 2
    assert f"config key {flag[2:]!r}: {names!r}: this subcommand takes exactly one name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--prep", "--algo"])
def test_repeated_technique_name_exits_2(fixture_dir, tmp_path, capsys, flag):
    names = "none,zscore,none" if flag == "--prep" else "kmeans,kmeans"
    out = tmp_path / "out"
    argv = ["stability", "--input", fixture_dir / "epicurves.csv", "--out", out]
    with pytest.raises(SystemExit) as exc:
        run([*argv, flag, names])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "each name may appear only once" in err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: names}))
    assert run([*argv, "--config", cfg]) == 2
    assert f"config key {flag[2:]!r}: {names!r}: each name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "preps, algos",
    [(PREPROCESS_KINDS, ALGORITHMS), (("none", "minmax_global"), ("kmeans",))],
    ids=["all", "tied_pair"],
)
def test_stability_reports_do_not_depend_on_flag_order(tmp_path, preps, algos):
    """Permuting --prep and --algo gives the same selection and the same bytes.

    On this 30-region fixture none/kmeans, population/kmeans and
    minmax_global/kmeans tie at mean_offdiag 0, so a selection that broke
    ties by flag order would follow the order given."""
    fixture = tmp_path / "fixture"
    assert main(["synth", "--regions", "30", "--days", "120", "--k-true", "3",
                 "--seed", "0", "--out", str(fixture)]) == 0
    rng = np.random.default_rng(0)
    orders = [(preps, algos), (preps[::-1], algos[::-1])]
    orders += [(rng.permutation(preps), rng.permutation(algos)) for _ in range(2)]
    reports = []
    for i, (prep_order, algo_order) in enumerate(orders):
        out = tmp_path / f"out{i}"
        assert run(["stability", "--input", fixture / "epicurves.csv",
                    "--populations", fixture / "populations.csv",
                    "--prep", ",".join(prep_order), "--algo", ",".join(algo_order),
                    "--out", out, "--heatmap"]) == 0
        reports.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    summary = json.loads(reports[0]["summary.json"])
    assert [(t["prep"], t["algorithm"]) for t in summary["techniques"]] == [
        (prep, algo) for prep in preps for algo in algos
    ]
    assert all(report == reports[0] for report in reports[1:])


@pytest.mark.parametrize("command", ["stability", "associate"])
def test_k_above_alignment_limit_exits_1_before_clustering(
    fixture_dir, tmp_path, capsys, monkeypatch, command
):
    def no_clustering(*args):
        raise AssertionError("clustered before the k check")

    monkeypatch.setattr("epiclust.pipeline._cluster_windows", no_clustering)
    out = tmp_path / "out"
    features = ["--features", fixture_dir / "features.csv"] if command == "associate" else []
    code = run([command, "--input", fixture_dir / "epicurves.csv", *features,
                "--prep", "none", "--algo", "kmeans", "--k", "13", "--out", out])
    assert code == 1
    assert "k=13 is unsupported" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_k_above_alignment_limit_runs(fixture_dir, tmp_path):
    """cluster aligns nothing, so the alignment's k limit does not apply."""
    assert run(["cluster", "--input", fixture_dir / "epicurves.csv", "--prep", "none",
                "--algo", "kmeans", "--k", "13", "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "clusters.json").read_text())["k"] == 13


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
        ("stability", '{"kmeans": 3}', "config section 'kmeans' must be a JSON object"),
    ],
    ids=["k_text", "k_fraction", "metric", "prep_scope", "prep_list", "restarts_bool", "not_json",
         "window_len_zero", "balance_threshold_above_1", "epsilon_zero", "max_iters_zero",
         "restarts_zero", "sigma_negative", "trials_zero", "sigma_inf", "epsilon_inf",
         "seed_negative", "section_not_object"],
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


def test_config_values_do_not_reach_later_calls(fixture_dir, tmp_path):
    # a call that builds on the once-built parser after a --config call writes
    # what a fresh process writes
    inputs = ["--input", fixture_dir / "epicurves.csv", "--features", fixture_dir / "features.csv",
              "--prep", "none", "--algo", "kmeans", "--trials", "20"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "seed": 3, "metric": "mismatch", "kmeans": {"restarts": 1}}))
    assert run(["associate", *inputs, "--config", cfg, "--out", tmp_path / "configured"]) == 0
    assert run(["associate", *inputs, "--out", tmp_path / "after"]) == 0
    argv = [str(a) for a in ["associate", *inputs, "--out", tmp_path / "fresh"]]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "epiclust.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "after").iterdir())
    for name in names:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert json.loads((tmp_path / "configured" / "association.json").read_text())["k"] == 2


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
        ("synth", ["--regions", "0"]),
        ("synth", ["--days", "0"]),
        ("synth", ["--k-true", "0"]),
        ("synth", ["--correlated", "-2"]),
        ("synth", ["--noise", "-1"]),
    ],
    ids=["cluster_window_len", "cluster_trials", "cluster_metric", "cluster_prep_scope",
         "cluster_baseline_mode", "cluster_heatmap", "stability_trials",
         "stability_baseline_mode", "sigma_text", "prep_empty_list", "algo_unknown_name",
         "associate_prep_blank", "balance_threshold_zero", "balance_threshold_above_1",
         "epsilon_zero", "epsilon_nan", "max_iters_zero", "restarts_negative",
         "window_len_zero", "trials_zero", "sigma_negative", "sigma_zero", "sigma_inf",
         "epsilon_inf", "seed_negative", "synth_seed_negative", "synth_regions_zero",
         "synth_days_zero", "synth_k_true_zero", "synth_correlated_negative", "synth_noise_negative"],
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

    monkeypatch.setattr("epiclust.cli._cluster_windows", no_clustering)
    monkeypatch.setattr("epiclust.pipeline._cluster_windows", no_clustering)
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


# the keywords each study flag feeds, all compared below
STUDY_KEYWORDS = ("window_len", "metric", "balance_threshold", "prep_scope")
FED_KEYWORDS = {
    "stability": STUDY_KEYWORDS,
    "associate": STUDY_KEYWORDS + ("trials", "baseline_mode", "seed"),
}


@pytest.mark.parametrize(
    "command, study",
    [("cluster", None), ("stability", temporal_stability), ("associate", feature_association)],
)
def test_parser_defaults_mirror_library_defaults(command, study):
    features = ["--features", "features.csv"] if command == "associate" else []
    args = vars(build_parser().parse_args([command, "--input", "epicurves.csv", *features]))
    expected = {**asdict(KMeansConfig()), **asdict(SpectralConfig())}
    if study is not None:
        params = inspect.signature(study).parameters.values()
        defaults = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
        assert set(FED_KEYWORDS[command]) <= set(defaults)
        expected.update(defaults)
    assert {key: args[key] for key in expected} == expected
