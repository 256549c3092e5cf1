import contextlib
import io
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcssp import cli, harness
from lrcssp.cli import main
from lrcssp.harness import CSV_HEADER, model_to_dict, read_summary
from lrcssp.linear_model import LinearCsspModel
from test_harness import fmt_oracle, tree_bytes


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

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        (tmp_path / "file").write_text("")
        assert main(["gen", "--config", cfg, "--out",
                     str(tmp_path / "file")]) == 2
        assert capsys.readouterr().err.startswith("config error")


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

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", cfg]) == 0
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "file")]) == 2
        assert capsys.readouterr().err.startswith("config error")

    def test_model_file_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model_file": "models"})
        (tmp_path / "out" / "models").mkdir(parents=True)
        assert main(["gen", "--config", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(
            line.startswith("config error") and "models" in line
            for line in err)

    def test_fingerprint_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", cfg])
        path = tmp_path / "out" / "model.json"
        payload = json.loads(path.read_text())
        payload["loss_embed"][0] = 0.123456
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", cfg]) == 2

    def test_fingerprint_computed_once(self, tmp_path, monkeypatch):
        # gen builds the model's dict once; run checks the stored
        # fingerprint once and writes that one into summary.txt
        cfg = write_config(tmp_path)
        calls = []

        def counting(name):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda model: (
                calls.append(name), real(model))[1])

        counting("model_to_dict")
        assert main(["gen", "--config", cfg]) == 0
        assert calls == ["model_to_dict"]
        calls.clear()
        counting("model_fingerprint")
        assert main(["run", "--config", cfg]) == 0
        assert calls == ["model_fingerprint", "model_to_dict"]
        stored = json.loads((tmp_path / "out" / "model.json").read_text())
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert summary.startswith(
            f"model_fingerprint: {stored['fingerprint']}\n")

    def test_zero_loss_loop_model_exits_2(self, tmp_path, capsys):
        # a model whose entries are legal, but whose state 1 only loops to
        # itself at zero loss: value iteration converges to v = 0 with a
        # greedy policy that never reaches the goal
        cfg = write_config(tmp_path, {
            "generator": {"d": 1, "n_states": 2, "n_actions": 1},
            "contexts": {"kind": "uniform", "K": 3},
            "seeds": [0]})
        trans_embed = np.zeros((2, 1, 2, 1))
        trans_embed[0, 0, 1] = 0.5
        trans_embed[1, 0, 1] = 1.0
        model = LinearCsspModel(np.array([[[0.5]], [[0.0]]]), trans_embed)
        os.makedirs(tmp_path / "out")
        (tmp_path / "out" / "model.json").write_text(
            json.dumps(model_to_dict(model)))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "model rejected" in err and "context 0" in err

    @pytest.mark.parametrize("c0, code", [(1.0 + 0.9e-9, 2), (1.0, 0)])
    def test_mass_at_both_tolerances(self, tmp_path, capsys, c0, code):
        # column mass and context sum each within validation's 1e-9, whose
        # product exceeds the 1e-9 an induced instance may carry
        cfg = write_config(tmp_path, {
            "generator": {"d": 1, "n_states": 2, "n_actions": 1},
            "contexts": {"kind": "fixed", "K": 3, "c0": [c0]},
            "seeds": [0]})
        trans_embed = np.zeros((2, 1, 2, 1))
        trans_embed[0, 0, :, 0] = [0.5, 0.5 + 0.9e-9]
        model = LinearCsspModel(np.full((2, 1, 1), 0.5), trans_embed)
        os.makedirs(tmp_path / "out")
        (tmp_path / "out" / "model.json").write_text(
            json.dumps(model_to_dict(model)))
        assert main(["run", "--config", cfg]) == code
        if code:
            err = capsys.readouterr().err
            assert "model rejected: context 0" in err
            assert "transition mass exceeds 1" in err

    @pytest.mark.parametrize("c0, message", [
        ([0.5, 0.6], "must sum to 1"),
        (None, "need 'c0'"),
        ([0.2, 0.3, 0.5], "context dimension 3 != model d 2"),
        ([float("nan"), 1.0], "must be finite"),
    ])
    def test_bad_fixed_context_exits_2(self, tmp_path, capsys, c0, message):
        # rejected with the config, before gen writes a model or run
        # writes config.json
        contexts = {"kind": "fixed", "K": 3}
        if c0 is not None:
            contexts["c0"] = c0
        cfg = write_config(tmp_path, {"contexts": contexts})
        assert main(["gen", "--config", cfg]) == 2
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and message in err
        assert not (tmp_path / "out").exists()

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
        assert main(["run", "--config", cfg, "--seed-offset", "10"]) == 0
        out = tmp_path / "out"
        assert (out / "lrcssp" / "seed_10" / "regret.csv").exists()
        assert (out / "lrcssp" / "seed_11" / "regret.csv").exists()
        assert not (out / "lrcssp" / "seed_0").exists()
        # the offset seeds stay distinct, one run each
        assert json.loads((out / "config.json").read_text())["seeds"] == \
            [10, 11]
        assert "lrcssp.runs: 2" in (out / "summary.txt").read_text()

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


MISSING = object()


class TestMalformedInput:
    """Malformed input exits 2 with a config error naming the field or the
    model file, never 1, and before run writes any artifact."""

    @pytest.mark.parametrize("section, key, value, names", [
        ("generator", "d", MISSING, "'d'"),
        ("generator", "d", 2.5, "GeneratorSpec.d"),
        ("contexts", "K", "abc", "ContextSpec.K"),
        ("contexts", "K", 5.0, "ContextSpec.K"),
        ("contexts", "K", "5", "ContextSpec.K"),
        ("contexts", "K", True, "ContextSpec.K"),
        ("contexts", "K", 0, "contexts.K"),
        ("contexts", "kind", "bogus", "'bogus'"),
        ("contexts", "kind", "adaptive", "'adaptive'"),
        ("learner", "delta", "x", "LearnerConfig.delta"),
        ("learner", "lam", float("nan"), "LearnerConfig.lam"),
        ("learner", "evi_max_iter", 2.5, "LearnerConfig.evi_max_iter"),
        (None, "seeds", "ab", "ExperimentConfig.seeds"),
        (None, "seeds", [0, 1.5], "seeds"),
        (None, "baseline_context_blind", 1,
         "ExperimentConfig.baseline_context_blind"),
        (None, "out_dir", 3, "ExperimentConfig.out_dir"),
        (None, "bogus", 1, "'bogus'"),
        (None, "learner", MISSING, "'learner'"),
        ("learner", "evi_max_iter", 0, "evi_max_iter"),
        (None, "seeds", [], "seeds"),
        (None, "seeds", [0, 0], "seeds"),
        ("generator", "seed", -1, "generator seed must be >= 0"),
        (None, "seeds", [-3], "seeds"),
        (None, "seeds", [0, -1], "seeds"),
        ("learner", "episode_step_cap", 0, "episode_step_cap"),
        ("learner", "episode_step_cap", -2, "episode_step_cap"),
    ])
    def test_config(self, tmp_path, capsys, section, key, value, names):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["out_dir"] = str(tmp_path / "out")
        target = raw if section is None else raw[section]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and names in err
        assert not (tmp_path / "out").exists()

    def test_seed_offset_below_zero(self, tmp_path, capsys):
        # the shifted seeds pass the same check as a config's own
        cfg = write_config(tmp_path, {"seeds": [0]})
        assert main(["gen", "--config", cfg, "--seed-offset", "-5"]) == 2
        assert main(["run", "--config", cfg, "--seed-offset", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and "seeds" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt, names", [
        (lambda p: "{not json", None),
        (lambda p: {k: v for k, v in p.items() if k != "d"}, None),
        (lambda p: dict(p, loss_embed=p["loss_embed"][:-1]), None),
        (lambda p: dict(p, s_init=9), None),
        (lambda p: dict(p, s_init=1.5), None),
        (lambda p: dict(p, s_init=True), None),
        (lambda p: dict(p, loss_noise="x"), None),
        (lambda p: dict(p, noise_width="x"), None),
        (lambda p: dict(p, noise_width=-0.3), None),
        (lambda p: dict(p, loss_embed=[float("nan")] + p["loss_embed"][1:]),
         "non_finite at ('loss_embed', 0, 0, 0)"),
        (lambda p: dict(p, loss_embed=p["loss_embed"][:3] + [1.5]
                        + p["loss_embed"][4:]),
         "loss_embed_range at (0, 1, 1)"),
        (lambda p: dict(p, trans_embed=[-0.1] + p["trans_embed"][1:]),
         "trans_embed_negative at (0, 0, 0, 0)"),
        # trans_embed[0, 0, :, 1] (entries 1, 3, 5 of the flat list) at 0.4
        (lambda p: dict(p, trans_embed=[
            0.4 if i in (1, 3, 5) else x
            for i, x in enumerate(p["trans_embed"])]),
         "column_mass at (0, 0, 1)"),
        (lambda p: dict(p, trans_embed=p["trans_embed"][:2] + [float("inf")]
                        + p["trans_embed"][3:]),
         "non_finite at ('trans_embed', 0, 0, 1, 0)"),
    ], ids=["invalid_json", "missing_d", "short_loss_embed", "s_init_9",
            "s_init_1.5", "s_init_true", "loss_noise_x", "noise_width_x",
            "noise_width_negative", "nan_loss_embed", "loss_1.5",
            "negative_trans", "column_mass", "inf_trans_embed"])
    def test_model_file(self, tmp_path, capsys, corrupt, names):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", cfg]) == 0
        path = tmp_path / "out" / "model.json"
        payload = json.loads(path.read_text())
        del payload["fingerprint"]  # each case reaches its own check
        bad = corrupt(payload)
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["run", "--config", cfg]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error") and (names or str(path)) in err
        assert not (tmp_path / "out" / "config.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--jobs" in err
        assert not (tmp_path / "out" / "config.json").exists()


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

    @pytest.mark.parametrize("edit", [
        lambda h, rows: (h, [r[:5] + ["abc"] + r[6:] for r in rows]),
        lambda h, rows: ([c for c in h if c != "cum_regret"],
                         [r[:5] + r[6:] for r in rows]),
        lambda h, rows: ([c for c in h if c != "truncated"],
                         [r[:8] + r[9:] for r in rows]),
        lambda h, rows: (h, []),
        lambda h, rows: (h, [r[:-1] for r in rows]),
        # the final regret, and so the stored mean, stays as it was
        lambda h, rows: (h, rows[:3] + rows[4:]),
    ], ids=["cum_regret_abc", "no_cum_regret", "no_truncated", "no_rows",
            "short_row", "middle_row_gone"])
    def test_report_malformed_csv_exits_2(self, tmp_path, capsys, edit):
        # the second seed's file, read after a well-formed first one
        out = self._full_pipeline(tmp_path)
        path = os.path.join(out, "lrcssp", "seed_1", "regret.csv")
        lines = [line.split(",") for line in open(path).read().splitlines()]
        assert lines[0][5] == "cum_regret" and lines[0][8] == "truncated"
        header, rows = edit(lines[0], lines[1:])
        with open(path, "w") as fh:
            fh.write("".join(",".join(r) + "\n" for r in [header] + rows))
        capsys.readouterr()
        assert main(["report", out]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("config error") and path in printed.err
        assert not any(line.startswith("lrcssp")
                       for line in printed.out.splitlines())

    @pytest.mark.parametrize("value", ["abc", "", "1.5.2"])
    def test_report_malformed_summary_mean_exits_2(self, tmp_path, capsys,
                                                   value):
        out = self._full_pipeline(tmp_path)
        path = os.path.join(out, "summary.txt")
        key = "lrcssp.final_regret_mean"
        lines = open(path).read().splitlines()
        assert sum(line.startswith(key + ": ") for line in lines) == 1
        with open(path, "w") as fh:
            fh.write("".join((f"{key}: {value}" if line.startswith(key + ": ")
                              else line) + "\n" for line in lines))
        capsys.readouterr()
        assert main(["report", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and path in err and key in err

    @staticmethod
    def _report_oracle(run_dir, variant):
        """The report's row and plot text for one variant as the former
        cmd_report built them: the mean over the plotted seeds' last
        points, and one line per episode."""
        vdir = os.path.join(run_dir, variant)
        seeds = sorted(d for d in os.listdir(vdir) if d.startswith("seed_"))
        curves, truncs, n_episodes = [], 0, 0
        for sd in seeds:
            with open(os.path.join(vdir, sd, "regret.csv")) as fh:
                header = fh.readline().strip().split(",")
                rows = [dict(zip(header, line.strip().split(",")))
                        for line in fh]
            truncated = [int(r["truncated"]) for r in rows]
            curve = [float(r["cum_regret"]) for r in rows]
            n_episodes = len(curve)
            truncs += sum(truncated)
            if not all(truncated) and not np.isnan(curve[-1]):
                curves.append(curve)
        with np.errstate(invalid="ignore"):
            mean = (float(np.mean([c[-1] for c in curves])) if curves
                    else float("nan"))
            plot = (np.mean(curves, axis=0) if curves
                    else np.full(n_episodes, float("nan")))
        row = f"{variant:<16}{len(seeds):>6}{fmt_oracle(mean):>20}{truncs:>13}"
        text = "episode,cum_regret_mean\n"
        for k, val in enumerate(plot):
            text += f"{k},{fmt_oracle(val)}\n"
        return row, text

    @pytest.mark.parametrize("curves", [
        # seed by seed, (cum_regret, truncated) per episode
        [[("0.5", 0), ("-0", 0), ("inf", 0), ("1e+30", 0)],
         [("-0", 0), ("-0", 1), ("-inf", 0), ("1", 0)],
         [("0", 1), ("0", 1), ("0", 1), ("0", 1)]],
        [[("-0", 0), ("-0", 0)], [("-0", 1), ("-0", 0)]],
        [[("1e+30", 0), ("1e+30", 0), ("-1e+30", 0)],
         [("1e+30", 0), ("1e+30", 0), ("1e+30", 0)]],
        [[("0.123456789", 0)]],
        [[("0", 1)], [("0", 1)]],
        [[("0.25", 0), ("nan", 0)], [("0.5", 0), ("0.75", 0)]],
    ], ids=["inf_and_truncated", "signed_zeros", "large", "K1",
            "all_truncated", "nan_point"])
    def test_report_equals_former_report(self, tmp_path, capsys, curves):
        run_dir = tmp_path / "run"
        for seed, curve in enumerate(curves):
            sdir = run_dir / "lrcssp" / f"seed_{seed}"
            sdir.mkdir(parents=True)
            (sdir / "regret.csv").write_text(CSV_HEADER + "\n" + "".join(
                f"{k},1,0.5,0.5,0,{cum},1,0,{t},1\n"
                for k, (cum, t) in enumerate(curve)))
        (run_dir / "summary.txt").write_text("")  # no stored mean to check
        row, plot = self._report_oracle(str(run_dir), "lrcssp")
        capsys.readouterr()
        with np.errstate(invalid="ignore"):
            assert main(["report", str(run_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == row
        assert (run_dir / "plot_lrcssp.csv").read_bytes() == plot.encode()

    def test_report_equals_former_report_on_runs(self, tmp_path, capsys):
        out = self._full_pipeline(tmp_path)
        capsys.readouterr()
        assert main(["report", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        for variant in ("context_blind", "lrcssp"):
            row, plot = self._report_oracle(out, variant)
            assert row in lines
            with open(os.path.join(out, f"plot_{variant}.csv"), "rb") as fh:
                assert fh.read() == plot.encode()

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

    def test_commands_are_looked_up_at_each_call(self, monkeypatch):
        cli.build_parser()  # kept from before the replacement
        monkeypatch.setattr(cli, "cmd_report", lambda args: 7)
        assert main(["report", "anywhere"]) == 7

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch,
                                          capsys):
        # the same calls, with a usage error among them, through the one
        # kept parser and through a fresh parser each: the same exit codes,
        # messages and trees
        assert cli.build_parser() is cli.build_parser()
        calls = [
            ["gen", "--config", "config.json", "--out", "a",
             "--seed-offset", "3"],
            ["run", "--config", "config.json", "--out", "a",
             "--seed-offset", "3", "--jobs", "2"],
            ["run", "--config", "config.json", "--jobs", "many"],
            ["report"],
            ["gen", "--config", "config.json", "--out", "b"],
            ["run", "--config", "config.json", "--out", "b", "--jobs", "1"],
            ["report", "a"],
            ["report", "b"],
        ]
        results = []
        for fresh in (False, True):
            work = tmp_path / ("fresh" if fresh else "kept")
            work.mkdir()
            monkeypatch.chdir(work)
            write_config(work)
            raw = json.loads((work / "config.json").read_text())
            raw["out_dir"] = "out"  # relative: the same in both work dirs
            (work / "config.json").write_text(json.dumps(raw))
            codes = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                codes.append(main(argv))
            results.append((codes, capsys.readouterr(), tree_bytes(work)))
        (codes, printed, tree), (want_codes, want_printed, want_tree) = results
        assert codes == want_codes == [0, 0, 2, 2, 0, 0, 0, 0]
        assert printed == want_printed
        assert tree == want_tree
        assert "a/lrcssp/seed_4/regret.csv" in tree
        assert "b/lrcssp/seed_1/regret.csv" in tree


# one field that no run can use, each exiting 2 (TestMalformedInput): a
# wrong type, a missing or unknown key, a bad c0 (read whatever the kind)
EDGE_FAULTS = [
    ("generator", "seed", -1),
    (None, "seeds", [0, -1]),
    ("learner", "episode_step_cap", 0),
    ("generator", "d", 2.5),
    ("contexts", "K", "abc"),
    ("contexts", "K", 5.0),
    ("contexts", "K", True),
    ("contexts", "kind", "bogus"),
    ("learner", "delta", "x"),
    ("learner", "lam", float("nan")),
    ("learner", "evi_max_iter", 2.5),
    (None, "seeds", "ab"),
    (None, "seeds", [0, 1.5]),
    (None, "baseline_context_blind", 1),
    (None, "out_dir", 3),
    ("generator", "d", MISSING),
    ("contexts", "K", MISSING),
    (None, "learner", MISSING),
    (None, "bogus", 1),
    ("contexts", "c0", [2.0, -1.0, 0.0]),
    ("contexts", "c0", [float("nan")]),
    ("contexts", "c0", "abc"),
]


class TestEdgeConfigs:
    """gen -> run -> report on tiny configs at and past the edges of what
    parses: any one malformed field exits 2 before anything is written, and
    a run that exits 0 repeats byte for byte and reports its stored means."""

    @staticmethod
    def _pipeline(work, raw, fault):
        # a relative out_dir keeps config.json the same in every work dir
        os.makedirs(work)
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(raw, fh)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            gen = main(["gen", "--config", "config.json"])
            run = main(["run", "--config", "config.json", "--jobs", "1"])
        finally:
            os.chdir(cwd)
        # a legal draw generates; a broken field stops gen and run alike
        if fault:
            assert (gen, run) == (2, 2)
            assert os.listdir(work) == ["config.json"]
        else:
            assert gen == 0
        return run

    @staticmethod
    def _report(out, variants):
        """report's table, checked against the summary run wrote."""
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["report", out]) == 0
        rows = {line.split()[0]: line.split()
                for line in printed.getvalue().splitlines()[1:]}
        assert sorted(rows) == variants
        stored = read_summary(os.path.join(out, "summary.txt"))
        for variant, (_, runs, mean, _) in rows.items():
            assert runs == stored[f"{variant}.runs"] == "2"
            # report recomputes the mean from regret.csv, whose cells keep
            # nine significant digits: its own check's tolerance
            assert np.isclose(float(mean),
                              float(stored[f"{variant}.final_regret_mean"]),
                              rtol=1e-7, atol=1e-9, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), n_states=st.integers(1, 3),
           n_actions=st.integers(1, 3), K=st.integers(1, 3),
           kind=st.sampled_from(["uniform", "cyclic_vertices", "fixed"]),
           cap=st.sampled_from([1, 10**6]), l_min=st.sampled_from([0.0, 0.1]),
           informed=st.booleans(), baseline=st.booleans(),
           fault=st.sampled_from([None] * len(EDGE_FAULTS) + EDGE_FAULTS))
    def test_run_exits_cleanly_and_repeats(self, d, n_states, n_actions, K,
                                           kind, cap, l_min, informed,
                                           baseline, fault):
        contexts = {"kind": kind, "K": K}
        if kind == "fixed":
            contexts["c0"] = [1.0 / d] * d
        raw = {"generator": {"d": d, "n_states": n_states,
                             "n_actions": n_actions, "gamma_goal": 0.2,
                             "seed": 3},
               "contexts": contexts,
               "learner": {"l_min": l_min, "episode_step_cap": cap},
               "seeds": [0, 1],
               "out_dir": "out",
               "baseline_context_blind": baseline,
               "oracle_informed": informed}
        if fault:  # half the draws break one field
            section, key, value = fault
            target = raw if section is None else raw[section]
            if value is MISSING:
                del target[key]
            else:
                target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "a")
            code = self._pipeline(first, raw, fault)
            assert code in (0, 2)
            if code:
                return
            tree = tree_bytes(os.path.join(first, "out"))
            assert self._pipeline(os.path.join(tmp, "b"), raw, fault) == 0
            assert tree_bytes(os.path.join(tmp, "b", "out")) == tree
            self._report(os.path.join(first, "out"),
                         ["context_blind", "lrcssp"] if baseline
                         else ["lrcssp"])
