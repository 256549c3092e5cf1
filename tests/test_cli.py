import json
import os

import pytest

from lrcssp.cli import main


BASE_CONFIG = {
    "generator": {"d": 2, "n_states": 3, "n_actions": 2, "gamma_goal": 0.2,
                  "l_min_target": 0.1, "seed": 1},
    "contexts": {"kind": "uniform", "K": 6},
    "learner": {"delta": 0.1, "l_min": 0.1},
    "seeds": [0, 1],
    "baseline_context_blind": True,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["out_dir"] = str(tmp_path / "out")
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(raw.get(key), dict):
                raw[key].update(val)
            else:
                raw[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestGen:
    def test_writes_model_with_fingerprint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "model.json").read_text())
        assert payload["format"] == "lrcssp-model"
        assert len(payload["fingerprint"]) == 64
        assert "fingerprint=" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--config", str(bad)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert main(["gen", "--config", cfg]) == 2

    def test_invalid_generator_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": {"gamma_goal": 0.0}})
        assert main(["gen", "--config", cfg]) == 2


class TestRun:
    def test_pipeline_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", cfg]) == 0
        assert main(["run", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "summary.txt").exists()
        for variant in ("lrcssp", "context_blind"):
            assert (out / variant / "seed_0" / "regret.csv").exists()
        assert "final regret mean" in capsys.readouterr().out

    def test_run_without_model_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 2

    def test_fingerprint_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", cfg])
        path = tmp_path / "out" / "model.json"
        payload = json.loads(path.read_text())
        payload["loss_embed"][0] = 0.123456
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", cfg]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", cfg])
        main(["run", "--config", cfg])
        first = (tmp_path / "out" / "lrcssp" / "seed_0"
                 / "regret.csv").read_bytes()
        main(["run", "--config", cfg])
        second = (tmp_path / "out" / "lrcssp" / "seed_0"
                  / "regret.csv").read_bytes()
        assert first == second

    def test_seed_offset_changes_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", cfg])
        main(["run", "--config", cfg, "--seed-offset", "10"])
        out = tmp_path / "out"
        assert (out / "lrcssp" / "seed_10" / "regret.csv").exists()
        assert not (out / "lrcssp" / "seed_0").exists()

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path)
        alt = str(tmp_path / "alt")
        # model must live where the run will look for it
        assert main(["gen", "--config", cfg, "--out", alt]) == 0
        assert main(["run", "--config", cfg, "--out", alt]) == 0
        assert (tmp_path / "alt" / "summary.txt").exists()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.json",
                             overrides={"out_dir": str(tmp_path / "a")})
        cfg_b = write_config(tmp_path, name="b.json",
                             overrides={"out_dir": str(tmp_path / "b")})
        main(["gen", "--config", cfg_a])
        main(["gen", "--config", cfg_b])
        main(["run", "--config", cfg_a, "--jobs", "1"])
        main(["run", "--config", cfg_b, "--jobs", "2"])
        a = (tmp_path / "a" / "lrcssp" / "seed_1" / "regret.csv").read_bytes()
        b = (tmp_path / "b" / "lrcssp" / "seed_1" / "regret.csv").read_bytes()
        assert a == b


class TestReport:
    def _full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", cfg])
        main(["run", "--config", cfg])
        return str(tmp_path / "out")

    def test_report_prints_table_and_plot_files(self, tmp_path, capsys):
        out = self._full_pipeline(tmp_path)
        assert main(["report", out]) == 0
        text = capsys.readouterr().out
        assert "lrcssp" in text and "context_blind" in text
        for variant in ("lrcssp", "context_blind"):
            plot = os.path.join(out, f"plot_{variant}.csv")
            assert os.path.exists(plot)
            lines = open(plot).read().splitlines()
            assert lines[0] == "episode,cum_regret_mean"
            assert len(lines) == 1 + BASE_CONFIG["contexts"]["K"]

    def test_report_detects_tampered_csv(self, tmp_path):
        out = self._full_pipeline(tmp_path)
        path = os.path.join(out, "lrcssp", "seed_0", "regret.csv")
        lines = open(path).read().splitlines()
        cols = lines[-1].split(",")
        cols[5] = "99999"  # cum_regret
        lines[-1] = ",".join(cols)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["report", out]) == 1

    def test_report_empty_dir_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "missing")]) == 2

    # one step per episode and little goal mass: most seeds truncate their
    # only episode, and such a seed's final regret is nan, not the csv's 0
    TRUNCATING = {
        "generator": {"d": 2, "n_states": 5, "n_actions": 3,
                      "gamma_goal": 0.05, "l_min_target": 0.1, "seed": 7},
        "contexts": {"kind": "uniform", "K": 1},
        "learner": {"delta": 0.1, "l_min": 0.1, "episode_step_cap": 1},
        "baseline_context_blind": False,
    }

    def _report_line(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, dict(self.TRUNCATING, seeds=seeds))
        assert main(["gen", "--config", cfg]) == 0
        assert main(["run", "--config", cfg]) == 0
        out = tmp_path / "out"
        stored = dict(line.split(": ") for line in
                      (out / "summary.txt").read_text().splitlines())
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        plot = (out / "plot_lrcssp.csv").read_text().splitlines()
        return stored["lrcssp.final_regret_mean"], row, plot[-1].split(",")

    def test_report_skips_all_truncated_seeds(self, tmp_path, capsys):
        stored, row, last = self._report_line(tmp_path, capsys,
                                              list(range(6)))
        assert row[0] == "lrcssp" and row[1] == "6"
        assert row[3] == "4"  # truncations
        assert float(row[2]) == pytest.approx(float(stored), rel=1e-7)
        assert float(stored) == pytest.approx(-0.340332576, rel=1e-8)
        assert float(last[1]) == pytest.approx(float(stored), rel=1e-7)

    def test_report_every_seed_truncated(self, tmp_path, capsys):
        stored, row, last = self._report_line(tmp_path, capsys, [0, 1, 2, 3])
        assert stored == "nan"
        assert row[2] == "nan" and row[3] == "4"
        assert last[1] == "nan"


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2
