import csv
import json
import re
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fswe.cli as cli_mod
import fswe.solver
import fswe.verify
from fswe.cli import ConfigError, RunConfig, main, parse_config
from fswe.noise import LevyMeasureSpec, tile_height


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
STABLE_NOISE = {"variant": "stable", "alpha": 1.0, "cutoff": 0.01}


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

    @pytest.mark.parametrize("key,value", [
        ("n_steps", "20"), ("modes", "16"), ("T", None), ("dimension", 1.0),
        ("N_max", True), ("grid_size", "65"), ("gamma", "2"), ("r", False),
        ("T", [1.0]), ("K_schedule", 4.0), ("K_schedule", [1.0, "2"]),
        ("K_schedule", [1.0, True]), ("coefficients", ["sine"])])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_wrong_json_type_names_the_key(self, tmp_path, capsys, key,
                                           value, command):
        # a config error (exit 2 naming the key), not a traceback (exit 1)
        cfg = write_config(tmp_path, dict(BASE, **{key: value}))
        out = tmp_path / "x"
        argv = ["--config", str(cfg), "--out", str(out)]
        argv += ["simulate"] if command == "simulate" \
            else ["--replicas", "2", "--suite", "tail", "verify"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("key,noise", [
        ("alpha", dict(STABLE_NOISE, alpha="1.0")),
        ("alpha", dict(STABLE_NOISE, alpha=True)),
        ("cutoff", dict(STABLE_NOISE, cutoff="0.01")),
        ("cutoff", dict(STABLE_NOISE, cutoff=False)),
        ("atoms", {"variant": "atoms", "atoms": [["a", 0.5]]}),
        ("atoms", {"variant": "atoms", "atoms": 5}),
        ("atoms", {"variant": "atoms", "atoms": [[1.0]]}),
        ("atoms", {"variant": "atoms", "atoms": [[1.0, True]]}),
        ("atoms", {"variant": "atoms"})])
    def test_wrong_noise_json_type_names_the_key(self, tmp_path, capsys,
                                                 key, noise):
        # a noise error (exit 2 naming the key), not a traceback (exit 1)
        # nor a run with alpha = true read as 1
        cfg = write_config(tmp_path, dict(BASE, noise=noise,
                                          K_schedule=[1.0, 2.0]))
        out = tmp_path / "x"
        assert main(["--config", str(cfg), "--out", str(out),
                     "simulate"]) == 2
        assert capsys.readouterr().err.startswith(f"error: noise {key} must")
        assert not out.exists()

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

    def test_ensemble_pastes_replicas_as_one_batch(self, tmp_path,
                                                   monkeypatch):
        # 16 stable replicas fit one block: one step call per grid step
        payload = dict(BASE, noise={"variant": "stable", "alpha": 1.0,
                                    "cutoff": 0.01},
                       K_schedule=[1.0, 2.0, 4.0])
        cfg = write_config(tmp_path, payload)
        calls = []
        step = fswe.solver.step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fswe.solver, "step", counted)
        out = tmp_path / "ens"
        assert main(["--config", str(cfg), "--seed", "3", "--out", str(out),
                     "--replicas", "16", "ensemble"]) == 0
        assert calls == list(range(BASE["n_steps"]))
        assert len(list(out.glob("replica_*.csv"))) == 16

    @pytest.mark.parametrize("coefficients,noise,rows", [
        ("sine", STABLE_NOISE, 26), ("constant", STABLE_NOISE, 139),
        ("sine", BASE["noise"], 139)],
        ids=["sine-stable", "constant-stable", "sine-atoms"])
    def test_blocks_count_the_raw_surrogate_feed(self, monkeypatch,
                                                 coefficients, noise, rows):
        # M=16 on 256 cells: a sigma that reads the state feeds the solver
        # one raw 8192-value tile per stable path, which the block counts;
        # a constant sigma or atom noise has no such feed
        config = RunConfig(coefficients=coefficients, noise=noise,
                           K_schedule=[1.0, 2.0, 4.0, 8.0])
        setup = config.build()
        bas = setup.basis
        assert bas.cell_count == 256 and tile_height(256) * 256 == 8192
        sizes = []

        def recorded(paths, *args):
            sizes.append(len(paths))
            return [None] * len(paths)

        monkeypatch.setattr(cli_mod, "paste_rows", recorded)
        cli_mod._paste_seeds(config, setup, list(range(140)))
        assert sizes[0] == rows and sum(sizes) == 140
        if rows == 26:
            per_row = (bas.grid_size + (setup.n_steps + 1) * bas.mode_count
                       + 8192)
            assert rows * per_row <= fswe.solver._BLOCK_VALUES

    @pytest.mark.parametrize("coefficients, noise, rows", [
        ("linear", BASE["noise"], 21), ("linear", STABLE_NOISE, 11),
        ("constant", STABLE_NOISE, 46)],
        ids=["linear-atoms", "linear-stable", "constant-stable"])
    def test_consistency_blocks_count_the_raw_surrogate_feed(
            self, monkeypatch, coefficients, noise, rows):
        # M=16 on 256 cells, the CLI's consistency call: a replica's
        # three solved rows hold two surrogates when its noise is stable
        # (zero_after draws a new one), its two pasted stable rows one;
        # a constant sigma has no raw feed, and 3 rows + 3 histories rule
        config = RunConfig(coefficients=coefficients, noise=noise,
                           K_schedule=[1.0, 2.0])
        setup = config.build()
        bas = setup.basis
        assert bas.cell_count == 256 and tile_height(256) * 256 == 8192
        sizes = []

        def solved(paths, setup, radius, keep):
            sizes.append(len(paths) // 3)
            shape = (len(paths), setup.n_steps + 1)
            return np.zeros(shape), np.zeros(shape + (bas.mode_count,))

        def pasted(paths, setup):
            sizes.append(len(paths) // 2)
            return [SimpleNamespace(coeffs=np.zeros(1))] * len(paths)

        monkeypatch.setattr(fswe.verify, "solve_rows", solved)
        monkeypatch.setattr(fswe.verify, "paste_rows", pasted)
        stable = LevyMeasureSpec(**STABLE_NOISE)
        fswe.verify.consistency_suite(setup, config.levy_spec(),
                                      stable_spec=stable, n_seeds=50)
        # each block's solve, then its paste
        assert sizes[:2] == [rows, rows] and sum(sizes) == 2 * 50
        if coefficients == "linear":
            # (rows and histories, raw tiles) per replica of each pass
            history = (setup.n_steps + 1) * bas.mode_count
            main = 2 if noise is STABLE_NOISE else 0
            for per, tiles in ((3, main), (2, 1)):
                assert rows * (per * (bas.grid_size + history)
                               + tiles * 8192) <= fswe.solver._BLOCK_VALUES

    def test_ensemble_worker_builds_setup_once(self, monkeypatch):
        builds = []
        build = RunConfig.build

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(RunConfig, "build", counted)
        monkeypatch.setattr(cli_mod, "_worker_state", None)
        cli_mod._init_ensemble_worker(RunConfig(**BASE).to_dict())
        for chunk in ([0], [1, 2]):
            trajs = cli_mod._ensemble_worker(chunk)
            assert len(trajs) == len(chunk)
            assert all(t.stopping.tau_by_N for t in trajs)
        assert len(builds) == 1

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    @pytest.mark.parametrize("command", ["ensemble"] + list(cli_mod._SUITES))
    def test_replicas_below_one_rejected(self, tmp_path, capsys, replicas,
                                         command):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--out", str(out),
                "--replicas", replicas]
        argv += ["ensemble"] if command == "ensemble" \
            else ["--suite", command, "verify"]
        assert main(argv) == 2
        assert "--replicas must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    # a large count would start that many processes, so only counts
    # below one are tried
    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["ensemble", "simulate"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers,
                                        command):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--replicas",
                     "2", "--workers", workers, command]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_match_one_process_after_a_threaded_solve(
            self, tmp_path, monkeypatch):
        # 4 stable replicas hold 4 surrogate streams, so the first ensemble
        # draws on a helper thread; the worker processes forked after it
        # write the bytes of one process
        payload = dict(BASE, noise=STABLE_NOISE, K_schedule=[1.0, 2.0, 4.0])
        cfg = write_config(tmp_path, payload)
        helpers = []
        helper_loop = fswe.solver._helper_loop

        def counted(*args):
            helpers.append(threading.get_ident())
            return helper_loop(*args)

        monkeypatch.setattr(fswe.solver, "_helper_loop", counted)
        before = threading.active_count()
        outs = {}
        for workers in (1, 2):
            out = tmp_path / f"ens{workers}"
            assert main(["--config", str(cfg), "--seed", "6", "--out",
                         str(out), "--replicas", "4", "--workers",
                         str(workers), "ensemble"]) == 0
            outs[workers] = out
            if workers == 1:
                assert len(helpers) == 1
                assert threading.active_count() == before
        for i in range(4):
            name = f"replica_{i}.csv"
            assert (outs[1] / name).read_bytes() == \
                (outs[2] / name).read_bytes()

    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "x"), "--seed", str(2**64),
                   "simulate"])
        assert rc == 2
        assert ("error: --seed must fit in an unsigned 64-bit integer"
                in capsys.readouterr().err)

    def test_summary_keys_and_infinity(self, tmp_path):
        # config keys in field order with noise last; a tau never reached
        # is Python json's Infinity token
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--seed", "3",
                     "--out", str(out), "simulate"]) == 0
        text = (out / "summary.json").read_text()
        summary = json.loads(text)
        assert list(summary["config"]) == [
            "dimension", "modes", "gamma", "r", "T", "n_steps",
            "coefficients", "grid_size", "N_max", "K_schedule", "noise"]
        taus = summary["trajectories"]["trajectory"]["tau_by_N"]
        assert list(taus.values())[-1] == float("inf")
        assert ": Infinity" in text and '"inf"' not in text

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

    def test_verify_additive_rejects_infinite_variance(self, tmp_path,
                                                        capsys):
        # the closed form needs m2 < inf, as the isometry and moment
        # suites do: a config error, and no report
        payload = dict(BASE, coefficients="linear",
                       noise={"variant": "stable", "alpha": 1.5,
                              "cutoff": 0.02},
                       K_schedule=[0.5, 2.0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "ver"
        rc = main(["--config", str(cfg), "--seed", "7", "--out", str(out),
                   "--replicas", "4", "--suite", "additive", "verify"])
        assert rc == 2
        assert "finite-variance" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_tail_rejects_infinite_variance(self, tmp_path, capsys):
        # its reference would be inf, so every verdict would pass: a
        # config error, and no report
        payload = dict(BASE, coefficients="linear", n_steps=20,
                       noise={"variant": "stable", "alpha": 1.0,
                              "cutoff": 0.01},
                       K_schedule=[1.0, 2.0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "ver"
        rc = main(["--config", str(cfg), "--seed", "7", "--out", str(out),
                   "--replicas", "8", "--suite", "tail", "verify"])
        assert rc == 2
        assert "finite-variance" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_additive_checks_at_fractions_of_T(self, tmp_path):
        # the default check times are T/4, T/2 and T, not 0.25, 0.5 and 1
        cfg = write_config(tmp_path, dict(BASE, T=0.8, n_steps=20,
                                          coefficients="additive"))
        out = tmp_path / "ver"
        rc = main(["--config", str(cfg), "--seed", "3", "--out", str(out),
                   "--replicas", "5", "--suite", "additive", "verify"])
        assert rc in (0, 1)
        names = [v["name"] for v in
                 json.loads((out / "report.json").read_text())["verdicts"]]
        times = {n.split("t=")[1] for n in names if "variance at" in n}
        assert times == {"0.2", "0.4", "0.8"}

    @pytest.mark.parametrize("noise,key", [
        ({"variant": "atoms", "atoms": [[1, 0.5], [-1, 0.5]], "alpha": 1.5,
          "cutoff": 0.3}, "alpha"),
        ({"variant": "atoms", "atoms": [[1, 0.5], [-1, 0.5]],
          "cutoff": 0.3}, "cutoff"),
        ({"variant": "stable", "alpha": 1.0, "atoms": [[5, 1]]}, "atoms")])
    def test_noise_key_of_the_other_variant_fatal(self, tmp_path, capsys,
                                                  noise, key):
        # such a key is rejected, not dropped from the run
        cfg = write_config(tmp_path, dict(BASE, noise=noise))
        out = tmp_path / "x"
        rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_atoms_noise_without_atoms_fatal(self, tmp_path, capsys):
        # a config error (exit 2 with a message), not a traceback (exit 1)
        cfg = write_config(tmp_path, dict(BASE, noise={"variant": "atoms"}))
        out = tmp_path / "x"
        rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "atoms" in err
        assert not out.exists()

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


def test_readme_example_moves(tmp_path):
    # the README's example config, run through simulate, writes a
    # trajectory whose H_r norm leaves zero
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", readme, re.S)[1])
    out = tmp_path / "run"
    assert main(["--config", str(config), "--seed", "42", "--out", str(out),
                 "simulate"]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        norms = [float(row["hr_norm"]) for row in csv.DictReader(fh)]
    assert len(norms) == parse_config(config).n_steps + 1
    assert any(norms)
