"""Experiment orchestration: configs, persistence, sweep, CLI."""
import copy
import dataclasses
import json
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import zopd.harness as harness
from zopd import engine
from zopd.cli import main as cli_main
from zopd.engine import ROLE_STEP, substream
from zopd.graph import Topology
from zopd.harness import (
    CSV_HEADER,
    ConfigError,
    config_from_dict,
    load_config,
    read_trace_csv,
    replica_a_config,
    replica_b_config,
    report_text,
    run_experiment,
    sweep,
    validate_config,
)


def _tiny_raw(out_dir, **algo):
    algorithm = {
        "rho": 6.0,
        "mu": 0.05,
        "samples": 3,
        "iters": 5,
        "seed": 31,
        "init": [-1.0, 1.0],
    }
    algorithm.update(algo)
    return {
        "name": "tiny",
        "topology": {"kind": "ring", "num_nodes": 3, "block_dim": 1, "seed": 0},
        "objective": {"kind": "quadratic", "box": [-50.0, 50.0], "seed": 5},
        "algorithm": algorithm,
        "baseline": {"enabled": True, "step_scale": 0.1},
        "trials": 2,
        "output_dir": str(out_dir),
    }


def _zero_quad_raw(out_dir, iters=1, trials=1):
    return {
        "name": "flat",
        "topology": {"kind": "ring", "num_nodes": 3, "block_dim": 1, "seed": 0},
        "objective": {
            "kind": "quadratic",
            "box": [-3.0, 3.0],
            "hessian": [[0.0]],
            "linear": [0.0],
        },
        "algorithm": {
            "rho": 6.0,
            "mu": 0.05,
            "samples": 2,
            "iters": iters,
            "seed": 9,
            "init": [0.0, 0.0],
        },
        "trials": trials,
        "output_dir": str(out_dir),
    }


class TestConfigValidation:
    def test_minimal_config_resolves(self, tmp_path):
        cfg = config_from_dict(_tiny_raw(tmp_path / "o"))
        assert cfg.name == "tiny"
        assert cfg.trials == 2
        assert cfg.modes == ("centralized",)
        assert cfg.workers is None
        assert cfg.baseline is not None
        assert len(cfg.objectives) == 3

    def test_error_carries_field_path(self, tmp_path):
        raw = _tiny_raw(tmp_path, rho="big")
        with pytest.raises(ConfigError, match="algorithm.rho") as exc:
            config_from_dict(raw)
        assert exc.value.field == "algorithm.rho"
        assert str(exc.value).startswith("algorithm.rho: ")

    def test_boolean_is_not_a_number(self, tmp_path):
        with pytest.raises(ConfigError, match="algorithm.rho"):
            config_from_dict(_tiny_raw(tmp_path, rho=True))

    def test_unknown_keys_rejected(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["extra"] = 1
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict(raw)
        raw = _tiny_raw(tmp_path)
        raw["algorithm"]["stepsize"] = 0.1
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict(raw)

    def test_missing_section_rejected(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        del raw["algorithm"]
        with pytest.raises(ConfigError, match="missing required field"):
            config_from_dict(raw)

    def test_explicit_topology_must_connect(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["topology"] = {"num_nodes": 3, "block_dim": 1, "edges": [[1, 2]]}
        with pytest.raises(ConfigError, match="not connected"):
            config_from_dict(raw)

    def test_toy_needs_scalar_blocks(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["topology"]["block_dim"] = 2
        raw["objective"] = {"kind": "toy"}
        with pytest.raises(ConfigError, match="block_dim=1"):
            config_from_dict(raw)

    def test_logreg_data_dir_must_be_complete(self, tmp_path):
        ddir = tmp_path / "data"
        ddir.mkdir()
        assert cli_main(
            ["gen-data", "--agents", "1", "--batch", "6", "--dim", "2", "--seed", "3",
             "--out-dir", str(ddir)]
        ) == 0
        raw = _tiny_raw(tmp_path)
        raw["topology"] = {"kind": "ring", "num_nodes": 3, "block_dim": 2, "seed": 0}
        raw["objective"] = {"kind": "logreg", "data_dir": str(ddir)}
        with pytest.raises(ConfigError, match="missing agent_002.csv"):
            config_from_dict(raw)

    def test_init_box_must_fit_domain(self, tmp_path):
        raw = _tiny_raw(tmp_path, init=[-60.0, 60.0])
        with pytest.raises(ConfigError, match="algorithm.init"):
            config_from_dict(raw)

    def test_modes_deduped_and_validated(self, tmp_path):
        raw = _tiny_raw(tmp_path, modes=["centralized", "centralized", "distributed"])
        assert config_from_dict(raw).modes == ("centralized", "distributed")
        with pytest.raises(ConfigError, match="unknown mode"):
            config_from_dict(_tiny_raw(tmp_path, modes=["gossip"]))

    def test_noise_section(self, tmp_path):
        raw = _tiny_raw(tmp_path, noise={"kind": "additive_gaussian", "std_dev": 0.1})
        cfg = config_from_dict(raw)
        assert cfg.params.noise.std_dev == 0.1
        with pytest.raises(ConfigError, match="std_dev"):
            config_from_dict(_tiny_raw(tmp_path, noise={"kind": "additive_gaussian"}))
        with pytest.raises(ConfigError, match="noise.kind"):
            config_from_dict(_tiny_raw(tmp_path, noise={"kind": "salt"}))

    def test_explicit_quadratic_needs_both_terms(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["objective"] = {"kind": "quadratic", "hessian": [[1.0]]}
        with pytest.raises(ConfigError, match="both hessian and linear"):
            config_from_dict(raw)

    def test_quadratic_convex_flag_reaches_objectives(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["objective"]["convex"] = False
        cfg = config_from_dict(raw)
        assert cfg.normalized["objective"]["convex"] is False
        probe = np.full((1, 1), 0.7)
        spd = config_from_dict(_tiny_raw(tmp_path))
        assert cfg.objectives[0].value_many(probe) != spd.objectives[0].value_many(probe)
        raw["objective"]["convex"] = "yes"
        with pytest.raises(ConfigError, match="convex"):
            config_from_dict(raw)

    def test_topology_from_file(self, tmp_path):
        topo_file = tmp_path / "topo.json"
        topo_file.write_text(json.dumps(Topology(3, ((1, 2), (2, 3)), 1).to_dict()))
        raw = _tiny_raw(tmp_path)
        raw["topology"] = {"file": str(topo_file)}
        cfg = config_from_dict(raw)
        assert cfg.topology.num_nodes == 3
        raw["topology"] = {"file": str(tmp_path / "absent.json")}
        with pytest.raises(ConfigError, match="file not found"):
            config_from_dict(raw)

    def test_workers_field(self, tmp_path):
        raw = _tiny_raw(tmp_path)
        raw["workers"] = "auto"
        assert config_from_dict(raw).workers is None
        raw["workers"] = 0
        with pytest.raises(ConfigError, match="workers"):
            config_from_dict(raw)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(("ring", "path", "star", "complete", "random_connected", "edges")),
        n=st.integers(3, 6),
        m=st.integers(1, 3),
        graph_seed=st.integers(0, 2**16),
        objective=st.sampled_from(
            ("toy", "toy-phases", "logreg", "quadratic-seeded", "quadratic-shared",
             "quadratic-explicit")
        ),
        noisy=st.booleans(),
        baseline=st.booleans(),
        workers=st.sampled_from((None, "auto", 1, 2)),
    )
    def test_normalized_round_trip_is_idempotent(
        self, kind, n, m, graph_seed, objective, noisy, baseline, workers
    ):
        raw = _tiny_raw("out/round-trip")
        m = 1 if objective.startswith("toy") else m
        if kind == "edges":
            order = np.random.default_rng(graph_seed).permutation(n) + 1
            edges = [[int(i), int(j)] for i, j in zip(order[:-1], order[1:])]
            raw["topology"] = {"num_nodes": n, "edges": edges, "block_dim": m}
        else:
            raw["topology"] = {
                "kind": kind, "num_nodes": n, "block_dim": m, "seed": graph_seed,
                "extra_edge_prob": 0.3,
            }
        raw["objective"] = {
            "toy": {"kind": "toy"},
            "toy-phases": {"kind": "toy", "phase_spread": 0.5, "phase_seed": graph_seed},
            "logreg": {"kind": "logreg", "batch": 6, "data_seed": graph_seed},
            "quadratic-seeded": {"kind": "quadratic", "seed": graph_seed},
            "quadratic-shared": {"kind": "quadratic", "seed": graph_seed, "shared": True},
            "quadratic-explicit": {
                "kind": "quadratic", "hessian": (2.0 * np.eye(m) + 0.1).tolist(),
                "linear": [0.5] * m,
            },
        }[objective]
        if noisy:
            raw["algorithm"]["noise"] = {"kind": "additive_gaussian", "std_dev": 0.1}
        if baseline:
            raw["baseline"]["mixing"] = "metropolis"
        else:
            del raw["baseline"]
        if workers is not None:
            raw["workers"] = workers
        cfg = config_from_dict(raw)
        again = config_from_dict(cfg.normalized)
        assert again == cfg
        assert again.config_hash == cfg.config_hash

    def test_baseline_mixing_has_one_rule(self, tmp_path, capsys):
        raw = _tiny_raw(tmp_path / "o")
        unnamed = config_from_dict(raw).config_hash
        raw["baseline"]["mixing"] = "metropolis"
        assert config_from_dict(raw).config_hash == unnamed
        raw["baseline"]["mixing"] = "uniform"
        cfg_path = tmp_path / "uniform.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert "config error: baseline.mixing: " in capsys.readouterr().err

    def test_objects_cannot_drift_from_normalized(self, tmp_path):
        cfg = config_from_dict(_tiny_raw(tmp_path / "o"))
        assert [f.name for f in dataclasses.fields(cfg)] == ["normalized"]
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, rho=3.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.output_dir = tmp_path / "elsewhere"

    def test_in_place_edit_of_normalized_is_refused(self, tmp_path):
        cfg = config_from_dict(_tiny_raw(tmp_path / "o"))
        before = cfg.config_hash
        cfg.normalized["algorithm"]["rho"] = 3.0
        assert cfg.params.rho == 6.0
        assert cfg.config_hash == before
        with pytest.raises(ValueError, match=r"dataclasses\.replace"):
            run_experiment(cfg)
        assert not (tmp_path / "o").exists()
        rebuilt = dataclasses.replace(cfg, normalized=cfg.normalized)
        assert rebuilt.params.rho == 3.0 and rebuilt.config_hash != before

    @pytest.mark.parametrize(
        "objective, algo, field",
        [
            ({"kind": "toy", "box": [5.0, -5.0]}, {}, "objective.box"),
            ({"kind": "quadratic", "box": [3.0, -3.0], "seed": 5}, {}, "objective.box"),
            ({"kind": "quadratic", "seed": -1}, {}, "objective.seed"),
            (None, {"retry_cap": -1}, "algorithm.retry_cap"),
            (None, {"gap_gradient": "mc", "mc_gap_samples": 0}, "algorithm.mc_gap_samples"),
            (None, {"noise": {"kind": "additive_gaussian", "std_dev": 0.1, "seed": 3}}, "algorithm.noise"),
            (None, {"noise": {"kind": "none", "std_dev": 0.5}}, "algorithm.noise"),
        ],
        ids=["toy-box", "quadratic-box", "quadratic-seed", "retry-cap", "mc-samples",
             "noise-key", "none-std-dev"],
    )
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, objective, algo, field):
        raw = _tiny_raw(tmp_path / "o", **algo)
        if objective is not None:
            raw["objective"] = objective
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.field == field
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    def test_replica_presets_resolve(self, tmp_path):
        a = config_from_dict(replica_a_config(str(tmp_path / "a"), trials=2))
        assert a.topology.num_nodes == 10
        assert a.params.rho == 600.0
        b = config_from_dict(replica_b_config(str(tmp_path / "b"), trials=2))
        assert b.topology.block_dim == 10
        assert b.baseline is not None


class TestPickledConfig:
    """Pool workers receive the resolved config pickled, so every objective
    family must survive the round trip bit for bit."""

    @pytest.mark.parametrize(
        "objective,block_dim",
        [
            ({"kind": "toy"}, 1),
            ({"kind": "toy", "phase_spread": 0.5, "phase_seed": 2}, 1),
            ({"kind": "logreg", "batch": 6, "data_seed": 1}, 2),
            ({"kind": "logreg", "data_dir": "data"}, 2),
            ({"kind": "quadratic", "box": [-50.0, 50.0], "seed": 5}, 2),
            ({"kind": "quadratic", "box": [-50.0, 50.0], "seed": 5, "shared": True}, 2),
            ({"kind": "quadratic", "hessian": [[2.0, 0.5], [0.5, -1.0]], "linear": [0.1, -0.2]}, 2),
        ],
        ids=["toy", "toy-phases", "logreg", "logreg-data-dir", "quadratic-seeded",
             "quadratic-shared", "quadratic-explicit"],
    )
    def test_objectives_survive_pickling(self, tmp_path, monkeypatch, objective, block_dim):
        monkeypatch.chdir(tmp_path)
        assert cli_main(
            ["gen-data", "--agents", "3", "--batch", "6", "--dim", "2", "--seed", "4",
             "--out-dir", "data"]
        ) == 0
        raw = _tiny_raw("out")
        raw["topology"]["block_dim"] = block_dim
        raw["objective"] = objective
        cfg = config_from_dict(raw)
        clone = pickle.loads(pickle.dumps(cfg))
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (7, block_dim))
        for orig, copied in zip(cfg.objectives, clone.objectives, strict=True):
            assert copied.lipschitz_l0 == orig.lipschitz_l0
            assert np.array_equal(copied.value_many(pts), orig.value_many(pts))
            assert (copied.smoothed_gradient is None) == (orig.smoothed_gradient is None)
            if orig.smoothed_gradient is not None:
                for x in pts:
                    assert np.array_equal(
                        copied.smoothed_gradient(x, 0.05), orig.smoothed_gradient(x, 0.05)
                    )
                    assert copied.smoothed_value(x, 0.05) == orig.smoothed_value(x, 0.05)
        assert clone.params == cfg.params


class TestConfigHash:
    """config_hash values recorded before the field tables replaced the
    hand-written config parsing: normalization must not drift."""

    def test_replica_presets(self):
        assert config_from_dict(replica_a_config()).config_hash == (
            "577d7a997124eee94b3ab49a6f25caf0fc768c27c337ed80c983be835f7d041c"
        )
        assert config_from_dict(replica_b_config()).config_hash == (
            "0c106d3ee7578678367bb4464273f604e59627fa54edab963e51ebcd4df68c16"
        )

    def test_explicit_edges_quadratic(self):
        raw = _zero_quad_raw("out/pinned")
        raw["topology"] = {"num_nodes": 4, "edges": [[1, 2], [2, 3], [4, 3], [4, 1]]}
        raw["objective"]["linear"] = [0.5]
        assert config_from_dict(raw).config_hash == (
            "bc50157a50c8806001fe2d0df3bb4bf15d1811d856d7adbb6c40daeab144fdaa"
        )

    def test_data_dir_logreg(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(
            ["gen-data", "--agents", "3", "--batch", "8", "--dim", "2", "--seed", "4",
             "--out-dir", "data"]
        ) == 0
        raw = _tiny_raw("out/pinned")
        raw["topology"] = {"kind": "ring", "num_nodes": 3, "block_dim": 2, "seed": 0}
        raw["objective"] = {"kind": "logreg", "data_dir": "data", "alpha": 0.2}
        assert config_from_dict(raw).config_hash == (
            "0a92f7bc0d997c27a0a6b7e095c51abbbea8efb9725b37c024cdec15cf90db68"
        )


class TestRunExperiment:
    def test_single_iteration_trace(self, tmp_path):
        cfg = config_from_dict(_zero_quad_raw(tmp_path / "flat"))
        result = run_experiment(cfg)
        rows = read_trace_csv(result.output_dir / "trial_000.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "primal_dual"
        assert rows[0]["iter"] == 1
        assert rows[0]["stationarity_gap"] == 0.0
        assert rows[0]["constraint_violation"] == 0.0
        mean_rows = read_trace_csv(result.output_dir / "mean.csv")
        assert [r["trial"] for r in mean_rows] == [-1]

    def test_reruns_are_byte_identical(self, tmp_path):
        raw = _tiny_raw(tmp_path / "o")
        run_experiment(config_from_dict(raw))
        out = Path(raw["output_dir"])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(config_from_dict(raw))
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert set(first) == {
            "trial_000.csv", "trial_001.csv", "mean.csv", "meta.json", "plot.gp",
        }

    def test_env_override_redirects_output(self, tmp_path, monkeypatch):
        raw = _tiny_raw(tmp_path / "configured")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        redirected = tmp_path / "redirected"
        monkeypatch.setenv("ZOPD_OUTPUT_DIR", str(redirected))
        result = run_experiment(load_config(cfg_path))
        assert result.output_dir == redirected
        meta = json.loads((redirected / "meta.json").read_text())
        assert meta["config"]["output_dir"] == str(redirected)
        # the variable applies where a config file is loaded, not to a dict
        in_code = run_experiment(config_from_dict(raw))
        assert in_code.output_dir == tmp_path / "configured"
        assert (redirected / "mean.csv").read_bytes() == (
            in_code.output_dir / "mean.csv"
        ).read_bytes()

    def test_mean_csv_is_the_trial_average(self, tmp_path):
        raw = _tiny_raw(tmp_path / "o")
        result = run_experiment(config_from_dict(raw))
        trials = [
            read_trace_csv(result.output_dir / f"trial_{t:03d}.csv") for t in range(2)
        ]
        mean_rows = read_trace_csv(result.output_dir / "mean.csv")
        for row in mean_rows:
            matching = [
                [r for r in trial if r["method"] == row["method"] and r["iter"] == row["iter"]]
                for trial in trials
            ]
            for col in ("stationarity_gap", "constraint_violation", "potential", "objective"):
                expected = float(np.mean([m[0][col] for m in matching]))
                assert row[col] == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_result_accessors(self, tmp_path):
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        gaps = result.mean_column("primal_dual", "stationarity_gap")
        assert gaps.shape == (5,)
        assert result.meta["config_hash"] == config_from_dict(_tiny_raw(tmp_path / "o")).config_hash
        assert len(result.records["rgf"]) == 2

    def test_meta_records_numpy_and_scipy_versions(self, tmp_path):
        # trace bytes depend on numpy's kernels and on scipy's erf (toy closed forms)
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        versions = json.loads((result.output_dir / "meta.json").read_text())["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__

    def test_plot_script_contents(self, tmp_path):
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        script = (result.output_dir / "plot.gp").read_text()
        assert "mean.csv" in script
        assert "stationarity_gap.png" in script
        assert "constraint_violation.png" in script
        assert "rgf" in script

    def test_equivalence_guard_trips_on_divergence(self, tmp_path, monkeypatch):
        real = harness.run_distributed

        def skew(name, index):
            def skewed(*args, **kwargs):
                result = real(*args, **kwargs)
                states = getattr(result, f"states_{name}").copy()
                states[index] += 1e-9
                setattr(result, f"states_{name}", states)
                return result

            return skewed

        cases = [
            # every entry of every iterate: the first agent at x^0
            ("x", ..., r"x of agent 1 at iteration 0 differs by 1\.000e-09$"),
            # one agent's block at one iteration
            ("x", (3, 1), r"x of agent 2 at iteration 3 differs by 1\.0\d\de-09$"),
            # the step gradient alone, with x and lam left equal
            ("grad", (2, 2), r"grad of agent 3 at iteration 2 differs by 1\.0\d\de-09$"),
        ]
        for k, (name, index, named) in enumerate(cases):
            monkeypatch.setattr(harness, "run_distributed", skew(name, index))
            raw = _tiny_raw(tmp_path / f"o{k}", modes=["centralized", "distributed"])
            raw["trials"] = 1
            message = "centralized/distributed mismatch in trial 0: " + named
            with pytest.raises(RuntimeError, match=message):
                run_experiment(config_from_dict(raw))

    def test_distributed_only_runs_one_engine_with_the_same_bytes(self, tmp_path, monkeypatch):
        raw = _tiny_raw(tmp_path / "c", modes=["centralized"])
        raw["workers"] = 1  # the patched engine must be the one that runs
        run_experiment(config_from_dict(raw))

        def refuse(*args, **kwargs):
            raise AssertionError("a distributed-only config ran the centralized engine")

        monkeypatch.setattr(harness, "run_centralized", refuse)
        raw = _tiny_raw(tmp_path / "d", modes=["distributed"])
        raw["workers"] = 1
        run_experiment(config_from_dict(raw))
        for name in ("trial_000.csv", "trial_001.csv", "mean.csv"):
            assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_dual_mode_config_passes_guard(self, tmp_path):
        raw = _tiny_raw(tmp_path / "o", modes=["centralized", "distributed"])
        raw["trials"] = 1
        result = run_experiment(config_from_dict(raw))
        assert (result.output_dir / "trial_000.csv").exists()

    def test_failed_trial_flushes_partial_rows(self, tmp_path):
        # concave blocks push iterates out of the domain box within a few steps
        raw = _zero_quad_raw(tmp_path / "boom", iters=30)
        raw["objective"]["hessian"] = [[-4.0]]
        raw["algorithm"]["rho"] = 0.5
        raw["algorithm"]["init"] = [-1.0, 1.0]
        with pytest.raises(RuntimeError, match="failed after"):
            run_experiment(config_from_dict(raw))
        partial = read_trace_csv(Path(raw["output_dir"]) / "trial_000.csv")
        assert 1 <= len(partial) < 30

    def test_out_of_box_iterate_names_trial_role_agent_and_iteration(self, tmp_path, monkeypatch):
        # concave blocks push the iterates out of the domain box [-3, 3]; the
        # step estimate at the first iterate with an agent outside fails
        iterates = []
        real = engine.primal_step

        def recording(*args):
            iterates.append(real(*args))
            return iterates[-1]

        monkeypatch.setattr(engine, "primal_step", recording)
        raw = _zero_quad_raw(tmp_path / "out", iters=30)
        raw["objective"]["hessian"] = [[-4.0]]
        raw["algorithm"].update(rho=0.5, init=[-1.0, 1.0])
        with pytest.raises(RuntimeError) as info:
            run_experiment(config_from_dict(raw))
        r = len(iterates)  # x^r is the last iterate, and rows 1..r were written
        assert [bool(np.all(np.abs(x) <= 3.0)) for x in iterates] == [True] * (r - 1) + [False]
        agent = 1 + int(np.flatnonzero(np.abs(iterates[-1]) > 3.0)[0])
        assert str(info.value) == (
            f"trial 0 failed after {r} rows: step estimate of agent {agent} at iteration {r}: "
            f"query point of agent {agent} outside the domain box"
        )

    def test_box_exhaustion_names_trial_role_agent_and_iteration(self, tmp_path):
        # every agent starts on the face x = 3 and no retry is allowed: the
        # first agent whose step row holds an outward direction fails
        raw = _zero_quad_raw(tmp_path / "face", iters=3)
        raw["algorithm"].update(init=[3.0, 3.0], samples=4, retry_cap=0)
        block = substream(9, 0, ROLE_STEP, 0).standard_normal((3, 4, 1))
        agent = 1 + int(np.flatnonzero(np.any(block[..., 0] > 0.0, axis=1))[0])
        with pytest.raises(
            RuntimeError,
            match=rf"^trial 0 failed after 0 rows: step estimate of agent {agent} at "
            "iteration 0: smoothing perturbation left the domain box 1 times",
        ):
            run_experiment(config_from_dict(raw))

    def test_worker_pool_matches_serial(self, tmp_path):
        serial_raw = _tiny_raw(tmp_path / "serial")
        serial_raw["workers"] = 1
        run_experiment(config_from_dict(serial_raw))
        pooled_raw = _tiny_raw(tmp_path / "pooled")
        pooled_raw["workers"] = 2
        run_experiment(config_from_dict(pooled_raw))
        for name in ("trial_000.csv", "trial_001.csv", "mean.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pooled" / name
            ).read_bytes()


    def test_failed_trial_cancels_the_queued_trials(self, tmp_path, monkeypatch):
        # the forked pool workers inherit the patched engine: trial 0 fails at
        # once and every other trial sleeps, so no trial after the two that
        # were running (or about to run) when trial 0 failed starts
        started = tmp_path / "started"
        started.mkdir()

        def engine_stub(topo, objectives, params, trial, *args, **kwargs):
            (started / f"{trial}").touch()
            if trial:
                time.sleep(0.5)
            raise RuntimeError(f"stub trial {trial}")

        monkeypatch.setattr(harness, "run_centralized", engine_stub)
        raw = _tiny_raw(tmp_path / "out")
        raw.update(trials=8, workers=2, baseline={"enabled": False})
        with pytest.raises(RuntimeError, match=r"^trial 0 failed after 0 rows: stub trial 0$"):
            run_experiment(config_from_dict(raw))
        assert "0" in {p.name for p in started.iterdir()} <= {"0", "1", "2"}

    def test_in_memory_config_same_bytes_at_any_worker_count(self, tmp_path):
        cfg = config_from_dict(_tiny_raw(tmp_path / "parsed"))
        names = ("trial_000.csv", "trial_001.csv", "mean.csv")
        outputs = []
        for rho, workers in ((6.0, 1), (3.0, 1), (3.0, 2)):
            out = tmp_path / f"{rho:g}-w{workers}"
            norm = copy.deepcopy(cfg.normalized)
            norm["algorithm"]["rho"] = rho
            norm["workers"] = workers
            norm["output_dir"] = str(out)
            run_experiment(dataclasses.replace(cfg, normalized=norm))
            assert json.loads((out / "meta.json").read_text())["config"] == norm
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[1] != outputs[0]  # the in-memory change reaches the trials
        assert outputs[2] == outputs[1]


class TestTraceCsv:
    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_trace_csv(bad)

    def test_row_width_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\nprimal_dual,0,1,2\n")
        with pytest.raises(ValueError, match="malformed CSV row"):
            read_trace_csv(bad)


class TestSweep:
    def test_rejections(self, tmp_path):
        cfg = config_from_dict(_zero_quad_raw(tmp_path / "s"))
        with pytest.raises(ConfigError, match="duplicate T values"):
            sweep(cfg, [4, 4, 8])
        with pytest.raises(ConfigError, match="need >= 3"):
            sweep(cfg, [4, 8])
        with pytest.raises(ConfigError, match="invalid horizon"):
            sweep(cfg, [4, 8, -1])

    def test_fit_report_and_files(self, tmp_path):
        cfg = config_from_dict(_tiny_raw(tmp_path / "s"))
        report = sweep(cfg, [4, 8, 16])
        assert report["horizons"] == [4, 8, 16]
        assert report["samples_per_horizon"] == [2, 3, 4]
        assert len(report["mean_gaps"]) == 3
        assert set(report["fit"]) == {"gamma1", "constant", "rel_residual"}
        base = Path(cfg.output_dir)
        assert (base / "rate_report.json").exists()
        for t in (4, 8, 16):
            assert (base / f"T{t}" / "mean.csv").exists()
        on_disk = json.loads((base / "rate_report.json").read_text())
        assert on_disk["fit"]["gamma1"] == report["fit"]["gamma1"]


class TestValidateAndReport:
    def test_flat_objective_satisfies_conditions(self, tmp_path):
        report = validate_config(config_from_dict(_zero_quad_raw(tmp_path / "v")))
        assert report.valid
        assert "overall: valid" in report_text(report)

    def test_toy_benchmark_reports_violated_thresholds(self, tmp_path):
        cfg = config_from_dict(replica_a_config(str(tmp_path / "a"), trials=1))
        report = validate_config(cfg)
        assert not report.valid
        assert report.required_rho > cfg.params.rho
        assert "INVALID" in report_text(report)


class TestCli:
    def test_run_and_validate_flow(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_zero_quad_raw(tmp_path / "out")))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "mean.csv").exists()
        assert "final mean gap" in capsys.readouterr().out
        assert cli_main(["validate", str(cfg_path)]) == 0

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "a.json"
        cfg_path.write_text(json.dumps(replica_a_config(str(tmp_path / "a"), trials=1)))
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert "INVALID" in capsys.readouterr().out

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli_main(["run", str(tmp_path / "missing.json")]) == 2

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        raw = _zero_quad_raw(tmp_path / "boom", iters=30)
        raw["objective"]["hessian"] = [[-4.0]]
        raw["algorithm"]["rho"] = 0.5
        raw["algorithm"]["init"] = [-1.0, 1.0]
        cfg_path = tmp_path / "boom.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gen_graph(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        assert cli_main(
            ["gen-graph", "--kind", "ring", "--nodes", "5", "--out", str(out)]
        ) == 0
        topo = Topology.from_dict(json.loads(out.read_text()))
        assert topo.num_nodes == 5
        capsys.readouterr()
        assert cli_main(["gen-graph", "--kind", "ring", "--nodes", "4"]) == 0
        streamed = json.loads(capsys.readouterr().out)
        assert streamed["num_nodes"] == 4

    def test_gen_graph_invalid_args(self, tmp_path, capsys):
        assert cli_main(["gen-graph", "--kind", "ring", "--nodes", "2"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_gen_data_feeds_logreg_config(self, tmp_path):
        ddir = tmp_path / "data"
        assert cli_main(
            ["gen-data", "--agents", "3", "--batch", "8", "--dim", "2", "--seed", "4",
             "--out-dir", str(ddir)]
        ) == 0
        assert (ddir / "planted.csv").exists()
        raw = _tiny_raw(tmp_path)
        raw["topology"] = {"kind": "ring", "num_nodes": 3, "block_dim": 2, "seed": 0}
        raw["objective"] = {"kind": "logreg", "data_dir": str(ddir), "box": [-10.0, 10.0]}
        cfg = config_from_dict(raw)
        assert cfg.objectives[0].dim == 2

    @pytest.mark.parametrize(
        "flag,name", [("--agents", "num_agents"), ("--batch", "batch"), ("--dim", "dim")]
    )
    def test_gen_data_rejects_empty_sizes(self, tmp_path, capsys, flag, name):
        sizes = {"--agents": "2", "--batch": "4", "--dim": "3", flag: "0"}
        ddir = tmp_path / "data"
        args = [a for item in sizes.items() for a in item]
        assert cli_main(["gen-data", *args, "--seed", "1", "--out-dir", str(ddir)]) == 2
        assert f"config error: gen-data: {name} must be >= 1" in capsys.readouterr().err
        assert not list(ddir.glob("agent_*.csv"))

    def test_sweep_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_raw(tmp_path / "s")))
        assert cli_main(["sweep", str(cfg_path), "--T", "4,8,16"]) == 0
        assert (tmp_path / "s" / "rate_report.json").exists()
        assert "fit:" in capsys.readouterr().out
        assert cli_main(["sweep", str(cfg_path), "--T", "4,8"]) == 2
        assert cli_main(["sweep", str(cfg_path), "--T", "a,b,c"]) == 2

    def test_load_config_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_raw(tmp_path / "o")))
        cfg = load_config(cfg_path)
        assert cfg.name == "tiny"
