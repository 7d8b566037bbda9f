import json

import pytest

import fswe.cli as cli_mod
from fswe.cli import ConfigError, RunConfig, main, parse_config


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "dimension": 1,
    "modes": 6,
    "gamma": 2.0,
    "r": 1.0,
    "T": 0.5,
    "n_steps": 10,
    "coefficients": "constant",
    "noise": {"variant": "atoms", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
}


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert cfg.modes == 6
        assert cfg.coefficients == "constant"

    def test_unknown_top_level_key_fatal(self, tmp_path):
        bad = dict(BASE, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_noise_key_fatal(self, tmp_path):
        bad = dict(BASE, noise={"variant": "atoms", "atoms": [[1, 1]],
                                "scale": 2})
        with pytest.raises(ConfigError, match="scale"):
            parse_config(write_config(tmp_path, bad))

    def test_invalid_json_fatal(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(p)

    @pytest.mark.parametrize("field,value,msg", [
        ("gamma", 0.9, "gamma > d"),
        ("r", 0.4, "r > d/2"),
        ("r", 1.8, "r < gamma - d/2"),
        ("coefficients", "mystery", "unknown coefficient preset"),
        ("dimension", 3, "dimension"),
    ])
    def test_validation_names_the_rule(self, tmp_path, field, value, msg):
        bad = dict(BASE)
        bad[field] = value
        with pytest.raises(ConfigError, match=msg):
            parse_config(write_config(tmp_path, bad))

    def test_k_schedule_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            RunConfig(K_schedule=[2.0, 1.0])

    def test_k_schedule_below_cutoff_fatal(self, tmp_path):
        # rejected when the config is read, not by the solver mid-run
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.0,
                                    "cutoff": 0.01},
                       K_schedule=[0.005, 1.0])
        with pytest.raises(ConfigError, match="cutoff"):
            parse_config(write_config(tmp_path, payload))


class TestCommands:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "run"
        rc = main(["--config", str(cfg), "--seed", "3",
                   "--out", str(out), "simulate"])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 3
        assert summary["config"]["modes"] == 6
        # an N-only run records N stopping times and no K levels
        stopping = summary["trajectories"]["trajectory"]
        assert "1" in stopping["tau_by_N"]
        assert stopping["tau_by_K"] == {}

    def test_simulate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", str(cfg), "--seed", "9",
                         "--out", str(out), "simulate"]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_noise_command(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "noise"
        assert main(["--config", str(cfg), "--seed", "1",
                     "--out", str(out), "noise"]) == 0
        assert (out / "noise.csv").exists()

    def test_noise_cells_match_solver_grid(self, tmp_path):
        # M=128 needs a 513-node grid, not the 257-node default
        cfg = write_config(tmp_path, dict(BASE, modes=128))
        out = tmp_path / "noise"
        assert main(["--config", str(cfg), "--seed", "1",
                     "--out", str(out), "noise"]) == 0
        header = json.loads((out / "noise.json").read_text())
        setup = parse_config(cfg).build()
        assert header["cells_per_dim"] == setup.basis.grid_size - 1 == 512

    def test_ensemble_command(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "ens"
        assert main(["--config", str(cfg), "--seed", "0",
                     "--out", str(out), "--replicas", "3", "ensemble"]) == 0
        for i in range(3):
            assert (out / f"replica_{i}.csv").exists()

    def test_verify_isometry(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "ver"
        rc = main(["--config", str(cfg), "--seed", "0", "--out", str(out),
                   "--replicas", "2000", "--suite", "isometry", "verify"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_ensemble_workers_match_one_process(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"ens{workers}"
            assert main(["--config", str(cfg), "--seed", "4", "--out",
                         str(out), "--replicas", "3", "--workers",
                         str(workers), "ensemble"]) == 0
            outs[workers] = out
        assert sorted(p.name for p in outs[1].iterdir()) == \
            sorted(p.name for p in outs[2].iterdir())
        for i in range(3):
            name = f"replica_{i}.csv"
            assert (outs[1] / name).read_bytes() == \
                (outs[2] / name).read_bytes()
        one, two = (json.loads((outs[w] / "summary.json").read_text())
                    for w in (1, 2))
        one.pop("runtime_seconds")
        two.pop("runtime_seconds")
        assert one == two

    def test_ensemble_worker_builds_setup_once(self, monkeypatch):
        builds = []
        build = RunConfig.build

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(RunConfig, "build", counted)
        monkeypatch.setattr(cli_mod, "_worker_state", None)
        cli_mod._init_ensemble_worker(RunConfig(**BASE).to_dict())
        for seed in (0, 1, 2):
            assert cli_mod._ensemble_worker(seed).stopping.tau_by_N
        assert len(builds) == 1

    def test_verify_consistency_uses_config_noise(self, tmp_path):
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.5,
                                    "cutoff": 0.02},
                       K_schedule=[0.5, 2.0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "ver"
        assert main(["--config", str(cfg), "--seed", "2", "--out", str(out),
                     "--replicas", "3", "--suite", "consistency",
                     "verify"]) == 0
        report = json.loads((out / "report.json").read_text())
        [k_verdict] = [v for v in report["verdicts"]
                       if v["name"].startswith("(K, K+1)")]
        assert k_verdict["passed"] is True
        assert k_verdict["inputs"] == {"K": 0.5, "alpha": 1.5,
                                       "cutoff": 0.02}

    def test_verify_consistency_stable_needs_k_schedule(self, tmp_path,
                                                         capsys):
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.5,
                                    "cutoff": 0.02})
        cfg = write_config(tmp_path, payload)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--replicas", "2", "--suite", "consistency", "verify"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "infinite-variance noise requires a K_schedule" in err

    def test_unknown_suite_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--suite", "nonsense", "verify"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, gamma=0.5))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate"])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_stable_noise_requires_k_schedule(self, tmp_path, capsys):
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.0,
                                    "cutoff": 0.01})
        cfg = write_config(tmp_path, payload)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate"])
        assert rc == 2
        assert "K_schedule" in capsys.readouterr().err

    def test_stable_noise_with_k_schedule(self, tmp_path):
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.0,
                                    "cutoff": 0.01},
                       K_schedule=[1.0, 2.0, 4.0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "stable"
        assert main(["--config", str(cfg), "--seed", "5",
                     "--out", str(out), "simulate"]) == 0
        assert (out / "trajectory.csv").exists()
        # pasting over K records the N stopping times of the pasted path too
        stopping = json.loads((out / "summary.json").read_text())[
            "trajectories"]["trajectory"]
        assert "1" in stopping["tau_by_N"]
        assert "1.0" in stopping["tau_by_K"]
