"""CLI and configuration contract tests."""

import argparse
import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import importlib.resources as resources
from pathlib import Path

import numpy as np
import pytest

from evidential_magdm import dataio
from evidential_magdm.cli import build_parser, main
from evidential_magdm.config import RunConfig
from evidential_magdm.errors import ConfigError
from evidential_magdm.fusion import FeatureSet, make_synthetic_sources
from evidential_magdm.linguistic import DecisionMatrix
from evidential_magdm.pipeline import run_pipeline

import decimal_oracle


@pytest.fixture
def recruitment_csvs(tmp_path):
    paths = []
    data_dir = resources.files("evidential_magdm") / "data" / "recruitment"
    for name in ("u1", "u2", "u3", "u4"):
        target = tmp_path / f"{name}.csv"
        shutil.copy(str(data_dir / f"{name}.csv"), target)
        paths.append(str(target))
    return paths


class TestRunConfig:
    def test_defaults_are_calibrated(self):
        cfg = RunConfig()
        assert cfg.owa_scheme == "orness"
        assert cfg.orness == 0.95
        assert cfg.log_base == "2"
        assert cfg.pair_weights == (0.5, 0.5)
        assert cfg.wpbl_axis == "attributes"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"term": 5})

    def test_term_range_policy(self):
        # 5..9 terms, with no key that lifts the range
        for terms, message in ((2, "terms must be >= 5, got 2"), (4, "terms must be >= 5, got 4"),
                               (10, "terms must be <= 9, got 10")):
            with pytest.raises(ConfigError, match=message):
                RunConfig(terms=terms)
        assert RunConfig(terms=5).terms == 5 and RunConfig(terms=9).terms == 9
        with pytest.raises(ConfigError, match=r"unknown config keys: \['allow_nonstandard_terms'\]"):
            RunConfig.from_dict({"terms": 4, "allow_nonstandard_terms": True})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = RunConfig(seed=np.int64(3), terms=np.int32(7))
        assert type(cfg.seed) is int and type(cfg.terms) is int
        assert json.loads(json.dumps(cfg.to_dict()))["seed"] == 3

    def test_pair_weights_validated(self):
        with pytest.raises(ConfigError):
            RunConfig(pair_weights=(0.7, 0.6))

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0)])
    def test_zero_pair_weight_rejected(self, weights):
        # either zero weight makes every pair divergence 0: no expert can be weighted
        with pytest.raises(ConfigError, match="pair_weights"):
            RunConfig(pair_weights=weights)

    def test_round_trip_via_dict(self):
        cfg = RunConfig(orness=0.7, log_base="e", seed=11)
        clone = RunConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"owa_scheme": "uniform", "seed": 3}')
        cfg = RunConfig.from_file(path)
        assert cfg.owa_scheme == "uniform" and cfg.seed == 3
        path.write_text("not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


class TestRankCommand:
    def test_reference_run(self, recruitment_csvs, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rank", *recruitment_csvs, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "u3 > u4 > u2 > u1" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["expert_ranking"] == ["u3", "u4", "u2", "u1"]
        assert (out / "report.md").exists()

    def test_reports_are_byte_identical(self, recruitment_csvs, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rank", *recruitment_csvs, "--out", str(out1)]) == 0
        assert main(["rank", *recruitment_csvs, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.md").read_bytes() == (out2 / "report.md").read_bytes()

    def test_json_flag_prints_report(self, recruitment_csvs, tmp_path, capsys):
        code = main(["rank", *recruitment_csvs, "--out", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["owa_scheme"] == "orness"
        assert "fused" in payload

    def test_dump_intermediates(self, recruitment_csvs, tmp_path):
        code = main(["rank", *recruitment_csvs, "--out", str(tmp_path),
                     "--dump-intermediates"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "bpa" in report and "wpbl" in report
        dump = (tmp_path / "u1_masses.csv").read_text().splitlines()
        assert dump[0] == "alt,attr,term,value"
        first = dump[1].split(",")
        assert first[:3] == ["1", "Panel interview", "1"]
        assert float(first[3]) == pytest.approx(0.25 / 7.125)
        assert (tmp_path / "u1_memberships.csv").exists()

    def test_single_expert_is_config_error(self, recruitment_csvs, capsys):
        code = main(["rank", recruitment_csvs[0]])
        assert code == 4
        assert "2 expert" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, recruitment_csvs, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,a,b\n1,2,x\n2,3,4\n")
        code = main(["rank", recruitment_csvs[0], str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv:2:3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_exits_2(self, recruitment_csvs, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"alternative,a,b\n1,2,3\n2,{cell},4\n")
        code = main(["rank", recruitment_csvs[0], str(bad)])
        assert code == 2
        assert "bad.csv:3:2" in capsys.readouterr().err

    @pytest.mark.parametrize("files", [1, 4])
    def test_negative_score_exits_2(self, recruitment_csvs, tmp_path, capsys, files):
        # a single negative cell used to shift the weights silently; the same
        # cell in every file used to fail the ranking with exit 4
        for path in recruitment_csvs[:files]:
            lines = Path(path).read_text().splitlines(keepends=True)
            label, score, rest = lines[2].split(",", 2)
            lines[2] = f"{label},-{score},{rest}"
            Path(path).write_text("".join(lines))
        code = main(["rank", *recruitment_csvs, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "u1.csv:3:2: expected a nonnegative score, got '-65'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_row_length_mismatch_exits_2(self, recruitment_csvs, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,a,b\n1,2\n2,3,4\n")
        assert main(["rank", recruitment_csvs[0], str(bad)]) == 2

    def test_trailing_blank_lines_are_ignored(self, recruitment_csvs, tmp_path, capsys):
        argv = ["rank", *recruitment_csvs, "--out", str(tmp_path / "out"), "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with open(recruitment_csvs[0], "a") as handle:
            handle.write("\n\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_interior_blank_line_exits_2(self, recruitment_csvs, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,a,b\n1,2,3\n\n2,3,4\n")
        assert main(["rank", recruitment_csvs[0], str(bad)]) == 2
        assert "bad.csv:3: row has 0 cells" in capsys.readouterr().err

    def test_duplicate_alternative_label_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("alternative,t1,t2\nx,1,2\ny,3,4\nx,5,7\n")
        b.write_text("alternative,t1,t2\nx,2,1\ny,4,3\nx,6,5\n")
        assert main(["rank", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert "a.csv:4:1: alternative 'x' repeats line 2" in err

    def test_duplicate_attribute_exits_2_at_its_column(self, tmp_path, capsys):
        # a repeated attribute would make the long-format dumps ambiguous
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("alternative,t1,t2,t1\nx,1,2,3\ny,3,4,5\n")
        b.write_text("alternative,t1,t2,t1\nx,2,1,3\ny,4,3,5\n")
        assert main(["rank", str(a), str(b), "--out", str(tmp_path / "out")]) == 2
        assert "a.csv:1:4: attribute 't1' repeats column 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_file_stem_exits_2_naming_both_files(self, recruitment_csvs, tmp_path, capsys):
        # the expert id is the file stem, so a/u1.csv and b/u1.csv are one expert twice
        other = tmp_path / "b" / "u1.csv"
        other.parent.mkdir()
        shutil.copy(recruitment_csvs[1], other)
        argv = ["rank", recruitment_csvs[0], str(other), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {other}:1: expert id 'u1' (the file stem) repeats {recruitment_csvs[0]}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "other, message",
        [
            ("alternative,t1,t2\nx,2,1\ny,4,3\nz,6,5\nw,8,7\n", "b.csv:5: 4 alternatives, {a} has 3"),
            ("alternative,t1,t2\nx,2,1\ny,4,3\n", "b.csv:3: 2 alternatives, {a} has 3"),
            ("alternative,t1,t2\nx,2,1\nq,4,3\nz,6,5\n", "b.csv:3:1: alternative 'q', {a} has 'y'"),
            ("alternative,t1,t3\nx,2,1\ny,4,3\nz,6,5\n", "b.csv:1: attributes ['t1', 't3'], {a} has ['t1', 't2']"),
            ("alternative,t1\nx,2\ny,4\nz,6\n", "b.csv:1: attributes ['t1'], {a} has ['t1', 't2']"),
        ],
        ids=["more-alternatives", "fewer-alternatives", "alternative-label", "attribute-label", "fewer-attributes"],
    )
    def test_expert_files_that_disagree_exit_2_at_the_line(self, tmp_path, capsys, other, message):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("alternative,t1,t2\nx,1,2\ny,3,4\nz,5,6\n")
        b.write_text(other)
        assert main(["rank", str(a), str(b), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {tmp_path / message.format(a=a)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_degenerate_attribute_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("alternative,t1\n1,5\n2,5\n3,5\n")
        b.write_text("alternative,t1\n1,4\n2,6\n3,8\n")
        code = main(["rank", str(a), str(b)])
        assert code == 3
        assert "t1" in capsys.readouterr().err

    def test_near_duplicate_experts_get_the_oracle_weights(self, tmp_path, capsys):
        # four near-duplicate experts: pair divergences of about 1e-19, which
        # the signed log-ratio form rounded to negative averages (exit 3)
        rng = np.random.default_rng(2)
        base = rng.uniform(1, 10, (30, 4))
        paths = []
        for i in range(4):
            values = base * (1 + 1e-9 * rng.standard_normal(base.shape))
            paths.append(tmp_path / f"u{i + 1}.csv")
            dataio.write_decision_matrix(paths[-1], DecisionMatrix(f"u{i + 1}", values))
        code = main(["rank", *map(str, paths), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        weights = json.loads((tmp_path / "out" / "report.json").read_text())["weights"]
        profiles = run_pipeline([dataio.read_decision_matrix(p) for p in paths]).wpbl_profiles
        assert min(weights) >= 0
        np.testing.assert_allclose(weights, decimal_oracle.expert_weights(profiles), rtol=0, atol=1e-9)

    def test_bad_config_key_exits_4(self, recruitment_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nope": 1}')
        assert main(["rank", *recruitment_csvs, "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("key", ["clamp_out_of_domain", "mean_over_alternatives", "divide_by_k", "allow_nonstandard_terms"])
    def test_removed_key_exits_4(self, recruitment_csvs, tmp_path, capsys, key):
        # a deleted field is rejected like any other unknown key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        assert main(["rank", *recruitment_csvs, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weights", ["[1.0, 0.0]", "[0.0, 1.0]"])
    def test_zero_pair_weight_exits_4(self, recruitment_csvs, tmp_path, capsys, weights):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"pair_weights": {weights}}}')
        assert main(["rank", *recruitment_csvs, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "pair_weights" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5.5", "true"])
    def test_non_integer_terms_exits_4(self, recruitment_csvs, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"terms": {value}}}')
        assert main(["rank", *recruitment_csvs, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "terms must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_value_error_inside_a_command_is_not_a_config_error(self, recruitment_csvs, monkeypatch):
        # exit 4 means configuration; a library ValueError is a fault, not a user error
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr("evidential_magdm.cli.run_pipeline", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["rank", *recruitment_csvs])

    def test_undecodable_csv_exits_2(self, recruitment_csvs, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"alternative,a\n1,\xff\xfe\n2,3\n")
        assert main(["rank", recruitment_csvs[0], str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"{bad}: not a text file" in capsys.readouterr().err

    def test_oversized_csv_field_exits_2_at_its_line(self, recruitment_csvs, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alternative,a\n1,2\n2," + "9" * 200_000 + "\n")
        assert main(["rank", recruitment_csvs[0], str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"{bad}:3: field larger than field limit" in capsys.readouterr().err

    def test_undecodable_config_exits_4(self, recruitment_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": \xff}')
        assert main(["rank", *recruitment_csvs, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert f"cannot read config {cfg}" in capsys.readouterr().err

    def test_config_controls_pipeline(self, recruitment_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"owa_scheme": "uniform"}')
        out = tmp_path / "out"
        assert main(["rank", *recruitment_csvs, "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["owa_weights"]["scheme"] == "uniform"
        np.testing.assert_allclose(report["owa_weights"]["values"], 0.2)


class TestCsvRoundTrip:
    def test_decision_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = DecisionMatrix(
            "expert", rng.uniform(0, 1, size=(5, 3)),
            ("a1", "a2", "a3", "a4", "a5"), ("x", "y", "z"),
        )
        path = tmp_path / "expert.csv"
        dataio.write_decision_matrix(path, matrix)
        back = dataio.read_decision_matrix(path)
        np.testing.assert_allclose(back.values, matrix.values, atol=1e-12)
        assert back.alternative_labels == matrix.alternative_labels
        assert back.attribute_labels == matrix.attribute_labels

    def test_signed_values_stay_accepted_outside_rank_csvs(self, tmp_path):
        (tmp_path / "s.csv").write_text("f0,f1,label\n-1.5,2,0\n3,-4e2,1\n")
        source = dataio.read_feature_source(tmp_path / "s.csv")
        np.testing.assert_array_equal(source.features, [[-1.5, 2.0], [3.0, -400.0]])
        matrix = DecisionMatrix("x", source.features)
        np.testing.assert_array_equal(matrix.values, source.features)

    def test_feature_source_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        source = FeatureSet("s", rng.normal(size=(7, 4)), rng.integers(0, 3, size=7))
        path = tmp_path / "s.csv"
        dataio.write_feature_source(path, source)
        back = dataio.read_feature_source(path)
        np.testing.assert_allclose(back.features, source.features, atol=1e-12)
        np.testing.assert_array_equal(back.labels, source.labels)


class TestFuseFeaturesCommand:
    @pytest.fixture
    def manifest(self, tmp_path):
        sources = make_synthetic_sources(7)
        for s in sources:
            dataio.write_feature_source(tmp_path / f"{s.source_id}.csv", s)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [
                {"id": s.source_id, "path": f"{s.source_id}.csv"} for s in sources
            ],
            "config": {"seed": 7, "sample_cap": 240},
        }))
        return manifest

    def test_end_to_end(self, manifest, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fuse-features", str(manifest), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["sources"] == ["informative", "noisy-copy", "pure-noise"]
        assert sum(payload["weights"]) == pytest.approx(1.0)
        fused = dataio.read_feature_source(out / "fused.csv")
        assert fused.features.shape == (240, 8)
        assert fused.labels is not None

    def test_config_precedence(self, manifest, tmp_path, capsys):
        # --seed beats the manifest's "config", which beats --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "sample_cap": 100, "block_size": 4}))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"sources": json.loads(manifest.read_text())["sources"]}))

        def config(*argv):
            assert main(["fuse-features", *argv, "--out", str(tmp_path / "out"), "--json"]) == 0
            c = json.loads(capsys.readouterr().out)["config"]
            return c["seed"], c["sample_cap"], c["block_size"]

        assert config(str(bare), "--config", str(cfg)) == (1, 100, 4)
        assert config(str(manifest), "--config", str(cfg)) == (7, 240, 4)
        assert config(str(manifest), "--config", str(cfg), "--seed", "9") == (9, 240, 4)
        assert config(str(manifest), "--seed", "9") == (9, 240, 8)
        assert config(str(bare)) == (0, 64, 8)

    def test_trailing_blank_line_is_ignored(self, manifest, tmp_path, capsys):
        argv = ["fuse-features", str(manifest), "--out", str(tmp_path / "out"), "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with open(tmp_path / "noisy-copy.csv", "a") as handle:
            handle.write("\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_single_source_rejected(self, tmp_path):
        sources = make_synthetic_sources(1)
        dataio.write_feature_source(tmp_path / "only.csv", sources[0])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sources": [{"id": "only", "path": "only.csv"}]}))
        assert main(["fuse-features", str(manifest)]) == 4

    def test_shape_mismatch_names_source(self, tmp_path, capsys):
        a = FeatureSet("a", np.random.default_rng(0).normal(size=(6, 3)),
                       np.array([0, 0, 0, 1, 1, 1]))
        b = FeatureSet("b", np.random.default_rng(1).normal(size=(6, 4)))
        dataio.write_feature_source(tmp_path / "a.csv", a)
        dataio.write_feature_source(tmp_path / "b.csv", b)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}],
        }))
        code = main(["fuse-features", str(manifest)])
        assert code == 2
        assert f"{tmp_path / 'b.csv'}:1: 4 feature columns, {tmp_path / 'a.csv'} has 3" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, line", [(7, 8), (5, 6)], ids=["more-samples", "fewer-samples"])
    def test_sample_count_mismatch_exits_2_at_the_line(self, tmp_path, capsys, samples, line):
        rng = np.random.default_rng(0)
        dataio.write_feature_source(tmp_path / "a.csv", FeatureSet("a", rng.normal(size=(6, 3)), np.arange(6) % 2))
        dataio.write_feature_source(tmp_path / "b.csv", FeatureSet("b", rng.normal(size=(samples, 3))))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}],
        }))
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 2
        message = f"{tmp_path / 'b.csv'}:{line}: {samples} samples, {tmp_path / 'a.csv'} has 6"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @staticmethod
    def manifest_with(tmp_path, name, edit, config=None):
        """The synthetic three-source manifest with ``edit`` applied to the sources' features."""
        sources = make_synthetic_sources(7)
        edit({s.source_id: s.features for s in sources})
        folder = tmp_path / name
        folder.mkdir()
        for s in sources:
            dataio.write_feature_source(folder / f"{s.source_id}.csv", s)
        manifest = folder / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": s.source_id, "path": f"{s.source_id}.csv"} for s in sources],
            "config": {"seed": 7, **(config or {})},
        }))
        return manifest

    def test_column_spanning_the_float_range_fuses(self, tmp_path, capsys):
        # hi - lo of the first dimension overflows; memberships are
        # scale-invariant, so the run must equal the one on the halved column
        wide = np.clip(np.random.default_rng(3).normal(0.0, 2.0, size=240), -1.0, 1.0) * 1.7e308

        def set_column(scale):
            def edit(features):
                features["informative"][:, 0] = wide * scale
            return edit

        payloads = []
        for name, scale in (("wide", 1.0), ("halved", 0.5)):
            manifest = self.manifest_with(tmp_path, name, set_column(scale))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["fuse-features", str(manifest), "--out", str(tmp_path / name / "out"), "--json"])
            assert code == 0, capsys.readouterr().err
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0]["weights"] == payloads[1]["weights"]
        assert sum(payloads[0]["weights"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("uniform", [False, True], ids=["flat-column-error", "uniform-then-normalise"])
    def test_all_zero_feature_column_exits_3_naming_source_and_dimension(self, tmp_path, capsys, uniform):
        def edit(features):
            features["noisy-copy"][:, 3] = 0.0

        manifest = self.manifest_with(tmp_path, "zero", edit, {"uniform_when_degenerate": uniform})
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 3
        assert "attribute 'f3' of expert 'noisy-copy'" in capsys.readouterr().err

    @staticmethod
    def two_source_manifest(tmp_path, bad_text):
        good = FeatureSet("a", np.random.default_rng(0).normal(size=(6, 3)),
                          np.array([0, 0, 0, 1, 1, 1]))
        dataio.write_feature_source(tmp_path / "a.csv", good)
        (tmp_path / "b.csv").write_text(bad_text)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}],
        }))
        return manifest

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_exits_2(self, tmp_path, capsys, cell):
        manifest = self.two_source_manifest(
            tmp_path, f"f0,f1,f2,label\n1,2,3,0\n4,{cell},6,1\n"
        )
        assert main(["fuse-features", str(manifest)]) == 2
        assert "b.csv:3:2" in capsys.readouterr().err

    def test_non_integral_label_exits_2(self, tmp_path, capsys):
        manifest = self.two_source_manifest(tmp_path, "f0,f1,f2,label\n1,2,3,0\n4,5,6,1.5\n")
        assert main(["fuse-features", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "b.csv:3:4" in err and "'1.5'" in err

    def test_single_sample_sources_exit_2_naming_the_file(self, tmp_path, capsys):
        # every source agrees on one sample, so only the reader can catch it
        for name in ("a", "b"):
            (tmp_path / f"{name}.csv").write_text("f0,f1,label\n1,2,0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}],
        }))
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert f"{tmp_path / 'a.csv'}: need a header and at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["mean_over_alternatives", "divide_by_k"])
    def test_removed_aggregation_keys_in_manifest_exit_4(self, tmp_path, capsys, key):
        manifest = self.manifest_with(tmp_path, "removed", lambda features: None, {key: True})
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 4
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"terms": 5.5}, "terms must be an integer, got 5.5"),
        ({"block_size": 2.5}, "block_size must be an integer, got 2.5"),
        ({"sample_cap": 10.5}, "sample_cap must be an integer, got 10.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"terms": True}, "terms must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
    ], ids=["terms", "block_size", "sample_cap", "seed", "negative-seed", "bool-terms", "string-seed"])
    def test_non_integer_manifest_config_exits_4_naming_the_key(self, tmp_path, capsys, config, message):
        manifest = self.manifest_with(tmp_path, "config", lambda features: None, config)
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_4(self, manifest, tmp_path, capsys):
        assert main(["fuse-features", str(manifest), "--seed", "-1", "--out", str(tmp_path / "out")]) == 4
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_disagreeing_labels_exit_2_at_the_first_differing_sample(self, manifest, tmp_path, capsys):
        noisy = tmp_path / "noisy-copy.csv"
        lines = noisy.read_text().splitlines()
        cells = lines[5].split(",")  # line 6, sample 4 of a 240 x 8 source, label 0
        assert cells[-1] == "0"
        lines[5] = ",".join(cells[:-1] + ["1"])
        noisy.write_text("\n".join(lines) + "\n")
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert f"{noisy}:6:9: label 1, {tmp_path / 'informative.csv'} has 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sources, message", [
        ([{"id": "x", "path": "a.csv"}, {"id": "x", "path": "b.csv"}], "sources 1 and 2 share the id 'x'"),
        ([{"path": "a.csv"}, {"id": "a", "path": "b.csv"}], "sources 1 and 2 share the id 'a'"),
        ([{"path": "a.csv"}, {"path": "sub/a.csv"}], "sources 1 and 2 share the id 'a'"),
        ([{"id": 5, "path": "a.csv"}, {"path": "b.csv"}], "source 1 id 5 is not a nonempty string"),
        ([{"id": "", "path": "a.csv"}, {"path": "b.csv"}], "source 1 id '' is not a nonempty string"),
        ([{"path": "a.csv"}, {"path": 5}], "each source needs a 'path' string"),
    ], ids=["explicit", "explicit-and-stem", "stems", "int-id", "empty-id", "int-path"])
    def test_bad_manifest_source_exits_4_before_any_csv_is_read(self, tmp_path, capsys, monkeypatch, sources, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sources": sources}))

        def no_read(*args, **kwargs):
            raise AssertionError("a source CSV was read")

        monkeypatch.setattr(dataio, "read_feature_source", no_read)
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 4
        assert f"manifest {manifest}: {message}" in capsys.readouterr().err

    def test_undecodable_manifest_exits_4(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"sources": ["\xff"]}')
        assert main(["fuse-features", str(manifest)]) == 4
        assert f"cannot read manifest {manifest}" in capsys.readouterr().err

    def test_unlabelled_sources_exit_2_before_weighting(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(0)
        for name in ("a", "b"):
            dataio.write_feature_source(tmp_path / f"{name}.csv", FeatureSet(name, rng.normal(size=(6, 3))))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "sources": [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}],
        }))

        def no_weighting(*args, **kwargs):
            raise AssertionError("the weighting stage ran")

        monkeypatch.setattr("evidential_magdm.cli.evaluate_fusion", no_weighting)
        assert main(["fuse-features", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert f"{tmp_path / 'a.csv'}:1: no source has a 'label' column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_label_is_accepted(self, tmp_path):
        (tmp_path / "s.csv").write_text("f0,label\n0.5,2.0\n0.25,1e0\n")
        labels = dataio.read_feature_source(tmp_path / "s.csv").labels
        np.testing.assert_array_equal(labels, [2, 1])


class TestVerifyPaperCommand:
    def test_module_entry_point(self):
        proc = fresh_python("-m", "evidential_magdm.cli", "verify-paper")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    def test_default_config_passes(self, capsys):
        code = main(["verify-paper"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") >= 12

    def test_json_output(self, capsys):
        code = main(["verify-paper", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "membership-table" in names and "candidate-ranking" in names

    def test_wrong_term_count_fails_loudly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"terms": 7}')
        code = main(["verify-paper", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "membership-table" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify-paper", "--bogus"],
        ["rank"],
        [],
        ["no-such-command"],
        ["fuse-features", "manifest.json", "--seed", "x"],
        ["verify-paper", "--dump-intermediates"],
        ["fuse-features", "manifest.json", "--dump-intermediates"],
    ])
    def test_usage_error_exits_4(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error:" in err

    @pytest.mark.parametrize("argv", [["rank", "a.csv", "b.csv", "--seed", "3"], ["verify-paper", "--seed", "3"]])
    def test_seed_is_refused_outside_fuse_features(self, argv, capsys):
        # only fusion samples and splits at random
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out


class TestReadmeTables:
    """The README's flag and configuration tables list what the code takes."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def table_rows(self, heading: str) -> dict[str, str]:
        """First cell -> second cell of the README table whose header row is ``heading``."""
        lines = self.README.read_text().splitlines()
        start = lines.index(heading) + 2
        rows = {}
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells[1]
        return rows

    def test_flag_table_matches_the_parser(self):
        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        documented = {
            command.strip("`"): set(re.findall(r"`(--[\w-]+)", flags))
            for command, flags in self.table_rows("| command | flags |").items()
        }
        parsed = {
            name: {a.option_strings[-1] for a in sub._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
            for name, sub in commands.choices.items()
        }
        assert documented == parsed

    def test_config_table_names_every_field(self):
        documented = set()
        for keys in self.table_rows("| key | default | meaning |"):
            documented.update(re.findall(r"`(\w+)`", keys))
        assert documented == {f.name for f in dataclasses.fields(RunConfig)}


def fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter that imports this checkout's library."""
    src = str(Path(__import__("evidential_magdm").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_cli_import_loads_no_scipy():
    proc = fresh_python(
        "-c",
        "import sys, evidential_magdm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_fuse_features_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs a cold process 15-20 ms to import; np.unique pulls it in
    for s in make_synthetic_sources(3):
        dataio.write_feature_source(tmp_path / f"{s.source_id}.csv", s)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"sources": [
        {"id": s, "path": f"{s}.csv"} for s in ("informative", "noisy-copy", "pure-noise")
    ]}))
    proc = fresh_python(
        "-c",
        "import sys; from evidential_magdm.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])); sys.exit(code)",
        "fuse-features", str(manifest), "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "fused.csv").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"
