"""Experiment orchestration: configs, persistence, sweep, CLI."""
import copy
import dataclasses
import importlib
import importlib.util
import json
import math
import pickle
import pkgutil
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smoothed_pair
import zopd
import zopd.harness as harness
from zopd import engine, szo
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
        (ddir / "agent_002.csv").mkdir()
        with pytest.raises(ConfigError, match="agent_002.csv: ") as exc:
            config_from_dict(raw)
        assert exc.value.field == "objective.data_dir"

    @pytest.mark.parametrize("bad", ["nan", "inf", "1.5x"])
    def test_logreg_data_must_be_finite_numbers(self, tmp_path, bad):
        ddir = tmp_path / "data"
        ddir.mkdir()
        assert cli_main(
            ["gen-data", "--agents", "3", "--batch", "6", "--dim", "2", "--seed", "3",
             "--out-dir", str(ddir)]
        ) == 0
        path = ddir / "agent_002.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = bad
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        raw = _tiny_raw(tmp_path)
        raw["topology"] = {"kind": "ring", "num_nodes": 3, "block_dim": 2, "seed": 0}
        raw["objective"] = {"kind": "logreg", "data_dir": str(ddir)}
        with pytest.raises(ConfigError, match="agent_002.csv: ") as exc:
            config_from_dict(raw)
        assert exc.value.field == "objective.data_dir"

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
        # an undecodable file is a config error at the field, naming the file
        topo_file.write_bytes(b"\xff{}")
        raw["topology"] = {"file": str(topo_file)}
        with pytest.raises(ConfigError, match="topo.json: 'utf-8' codec") as exc:
            config_from_dict(raw)
        assert exc.value.field == "topology.file"
        # the file's fields are named as inline ones are: a malformed pair
        # and a self-loop are errors at topology.edges
        for edges in ([[1, 2], [2]], [[1, 2], [2, 2], [2, 3]]):
            topo_file.write_text(json.dumps({"num_nodes": 3, "edges": edges}))
            with pytest.raises(ConfigError) as exc:
                config_from_dict(raw)
            assert exc.value.field == "topology.edges"

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
            ({"kind": "toy", "box": [-5.0, 800.0]}, {}, "objective.box"),
            ({"kind": "quadratic", "box": [3.0, -3.0], "seed": 5}, {}, "objective.box"),
            ({"kind": "quadratic", "seed": -1}, {}, "objective.seed"),
            (None, {"retry_cap": -1}, "algorithm.retry_cap"),
            (None, {"gap_gradient": "mc", "mc_gap_samples": 0}, "algorithm.mc_gap_samples"),
            (None, {"noise": {"kind": "additive_gaussian", "std_dev": 0.1, "seed": 3}}, "algorithm.noise"),
            (None, {"noise": {"kind": "none", "std_dev": 0.5}}, "algorithm.noise"),
            (None, {"potential_weight": math.nan}, "algorithm.potential_weight"),
            (None, {"mu": math.inf}, "algorithm.mu"),
            (None, {"init": [-math.inf, 1.0]}, "algorithm.init[0]"),
            ({"kind": "quadratic", "hessian": [[math.nan]], "linear": [0.0]}, {},
             "objective.hessian"),
            (None, {"iters": 0}, "algorithm.iters"),
            (None, {"samples": 0}, "algorithm.samples"),
            (None, {"seed": -1}, "algorithm.seed"),
            (None, {"gap_gradient": "foo"}, "algorithm.gap_gradient"),
            (None, {"gradient_mode": "exact"}, "algorithm.gradient_mode"),
            # bounds that the library also checks, named at their field
            (None, {"rho": 0}, "algorithm.rho"),
            (None, {"mu": 0}, "algorithm.mu"),
            (None, {"potential_weight": -1}, "algorithm.potential_weight"),
            ({"baseline": {"step_scale": 0}}, {}, "baseline.step_scale"),
            ({"baseline": {"mu": 0}}, {}, "baseline.mu"),
            ({"topology": {"kind": "ring", "num_nodes": 1}}, {}, "topology.num_nodes"),
            ({"topology": {"kind": "ring", "num_nodes": 3, "block_dim": 0}}, {},
             "topology.block_dim"),
            ({"topology": {"kind": "ring", "num_nodes": 3, "extra_edge_prob": 2}}, {},
             "topology.extra_edge_prob"),
            ({"kind": "logreg", "epsilon": 0}, {}, "objective.epsilon"),
            ({"kind": "logreg", "alpha": -1}, {}, "objective.alpha"),
            ({"kind": "logreg", "flip_prob": 2}, {}, "objective.flip_prob"),
            # rules on one field that the library checks, named at that field
            ({"topology": {"num_nodes": 3, "edges": [[1, 1], [1, 2], [2, 3]]}}, {},
             "topology.edges"),
            ({"topology": {"num_nodes": 3, "edges": [[1, 2], [2, 3], [3, 4]]}}, {},
             "topology.edges"),
            ({"topology": {"num_nodes": 3, "edges": [[1, 2], [2, 3], [3, 2]]}}, {},
             "topology.edges"),
            ({"kind": "quadratic", "hessian": [[1.0, 0.0]], "linear": [0.0]}, {},
             "objective.hessian"),
            ({"kind": "quadratic", "hessian": [[1.0, 0.5], [0.0, 1.0]], "linear": [0.0, 0.0]},
             {}, "objective.hessian"),
            ({"kind": "quadratic", "hessian": [[1.0]], "linear": [0.0, 0.0]}, {},
             "objective.linear"),
        ],
        ids=["toy-box", "toy-box-above-700", "quadratic-box", "quadratic-seed", "retry-cap", "mc-samples",
             "noise-key", "none-std-dev", "nan-potential-weight", "infinite-mu",
             "infinite-init", "nan-hessian", "zero-iters", "zero-samples", "negative-seed",
             "unknown-gap-gradient", "unknown-gradient-mode", "zero-rho", "zero-mu",
             "negative-potential-weight", "zero-baseline-step-scale", "zero-baseline-mu",
             "one-node", "zero-block-dim", "edge-prob-above-one", "zero-logreg-epsilon",
             "negative-logreg-alpha", "flip-prob-above-one", "self-loop", "node-out-of-range",
             "duplicate-edge", "non-square-hessian", "asymmetric-hessian", "linear-length"],
    )
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, objective, algo, field):
        raw = _tiny_raw(tmp_path / "o", **algo)
        # an objective section (it has a kind) replaces the objective; any
        # other dict replaces the sections it names
        if objective is not None:
            raw.update(objective if "kind" not in objective else {"objective": objective})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.field == field
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, algo, field",
        [
            ("replica-b", {"gradient_mode": "reference"}, "algorithm.gradient_mode"),
            ("replica-b", {"gap_gradient": "closed_form"}, "algorithm.gap_gradient"),
            ("phase-spread-toy", {"gap_gradient": "closed_form"}, "algorithm.gap_gradient"),
        ],
        ids=["replica-b-reference", "replica-b-closed-form-meter", "phase-spread-toy"],
    )
    def test_setting_without_closed_form_is_a_config_error(
        self, tmp_path, capsys, preset, algo, field
    ):
        # refused when the config is built, so a run writes no file
        out = tmp_path / "o"
        if preset == "replica-b":
            raw = replica_b_config(str(out), trials=1)
            raw["algorithm"].update(algo)
        else:
            raw = _tiny_raw(out, **algo)
            raw["objective"] = {"kind": "toy", "phase_spread": 0.5}
        with pytest.raises(ConfigError, match="closed") as exc:
            config_from_dict(raw)
        assert exc.value.field == field
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

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
            assert (copied.family.smoothed is None) == (orig.family.smoothed is None)
            if orig.family.smoothed is not None:
                for x in pts:
                    got, want = smoothed_pair(copied, x, 0.05), smoothed_pair(orig, x, 0.05)
                    assert np.array_equal(got[0], want[0])
                    assert got[1] == want[1]
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
        # the in-memory mean is the rows mean.csv holds, and its columns are
        # the trial CSVs' column means, exactly
        for method in ("primal_dual", "rgf"):
            written = [r for r in mean_rows if r["method"] == method]
            assert [dataclasses.asdict(r) for r in result.mean[method]] == [
                {"iteration": r["iter"]} | {c: r[c] for c in harness._COLUMNS} for r in written
            ]
            for col in harness._COLUMNS:
                stack = [[r[col] for r in trial if r["method"] == method] for trial in trials]
                np.testing.assert_array_equal(
                    [getattr(r, col) for r in result.mean[method]], np.array(stack).mean(axis=0)
                )

    def test_result_accessors(self, tmp_path):
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        assert [r.iteration for r in result.mean["primal_dual"]] == [1, 2, 3, 4, 5]
        assert result.meta["config_hash"] == config_from_dict(_tiny_raw(tmp_path / "o")).config_hash
        assert len(result.records["rgf"]) == 2

    def test_meta_records_numpy_and_scipy_versions(self, tmp_path):
        # trace bytes depend on numpy's kernels and on scipy's erf (toy closed forms)
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        versions = json.loads((result.output_dir / "meta.json").read_text())["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        assert versions["package"] == zopd.__version__

    def test_plot_script_contents(self, tmp_path):
        result = run_experiment(config_from_dict(_tiny_raw(tmp_path / "o")))
        script = (result.output_dir / "plot.gp").read_text()
        assert "mean.csv" in script
        assert "stationarity_gap.png" in script
        assert "constraint_violation.png" in script
        assert "rgf" in script

    def test_equivalence_guard_trips_on_divergence(self, tmp_path, monkeypatch):
        # the message-passing run replays the centralized result, so a skew
        # of that result raises at the first replayed round it reaches
        real, update, rounds = harness.run_centralized, engine._primal_update, []

        def counted(*args):
            rounds.append(1)
            return update(*args)

        def skew(name, index):
            def skewed(*args, **kwargs):
                result = real(*args, **kwargs)
                states = getattr(result, f"states_{name}").copy()
                states[index] += 1e-9
                setattr(result, f"states_{name}", states)
                rounds.clear()  # count the replay's rounds only
                return result

            return skewed

        monkeypatch.setattr(engine, "_primal_update", counted)
        cases = [
            # (quantity, index, message, rounds replayed before it raised)
            # every entry of every iterate: the first agent at x^0
            ("x", ..., r"x of agent 1 at iteration 0 differs by 1\.000e-09$", 0),
            # one agent's block at one iteration
            ("x", (3, 1), r"x of agent 2 at iteration 3 differs by 1\.0\d\de-09$", 3),
            # the step gradient alone, which the replay steps with: it shows
            # in that agent's next iterate, scaled by 1 / (2 rho degree)
            ("grad", (2, 2), r"x of agent 3 at iteration 3 differs by 4\.1\d\de-11$", 3),
            # one edge's dual, with x left equal
            ("lam", (2, 1), r"lam of edge \(2, 3\) at iteration 2 differs by 1\.0\d\de-09$", 2),
        ]
        for k, (name, index, named, replayed) in enumerate(cases):
            monkeypatch.setattr(harness, "run_centralized", skew(name, index))
            raw = _tiny_raw(tmp_path / f"o{k}", modes=["centralized", "distributed"])
            raw["trials"] = 1
            message = "^trial 0 failed after 5 rows: centralized/distributed mismatch in trial 0: "
            with pytest.raises(RuntimeError, match=message + named):
                run_experiment(config_from_dict(raw))
            assert len(rounds) == replayed
            rows = read_trace_csv(tmp_path / f"o{k}" / "trial_000.csv")
            assert [(r["method"], r["iter"]) for r in rows] == [("primal_dual", r) for r in range(1, 6)]

    def test_both_modes_estimate_and_grade_once(self, tmp_path, monkeypatch):
        # the replay takes the centralized run's step gradients and rows:
        # per run and role, the estimates made and the rows graded
        calls = Counter()
        run = ["centralized"]
        estimate, grade = engine._Estimator.__call__, engine._TraceMeter.grade
        replay = harness.run_distributed

        def counted_estimate(self, *args):
            calls[run[0], "estimates", self.role] += 1
            return estimate(self, *args)

        def counted_grade(self, xs, measured):
            calls[run[0], "graded rows", self.role] += len(measured)
            return grade(self, xs, measured)

        def replay_run(*args, **kwargs):
            run[0] = "replay"
            return replay(*args, **kwargs)

        monkeypatch.setattr(engine._Estimator, "__call__", counted_estimate)
        monkeypatch.setattr(engine._TraceMeter, "grade", counted_grade)
        monkeypatch.setattr(harness, "run_distributed", replay_run)
        raw = _tiny_raw(tmp_path / "o", modes=["centralized", "distributed"], iters=7)
        raw.update(trials=1, workers=1, baseline={"enabled": False})
        run_experiment(config_from_dict(raw))
        assert run == ["replay"]
        assert calls == {
            ("centralized", "estimates", engine.ROLE_STEP): 7,
            ("centralized", "graded rows", engine.ROLE_METER): 7,
        }

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

    def test_failed_baseline_keeps_its_rows_and_counts_every_method(self, tmp_path):
        # a huge baseline step clips agents onto the box face in round 0, and
        # with no retry allowed the round-1 step estimate fails after its
        # row was recorded
        raw = {
            "name": "rgf-fail",
            "topology": {"kind": "ring", "num_nodes": 4},
            "objective": {"kind": "toy"},
            "algorithm": {"rho": 6.0, "mu": 0.05, "samples": 3, "iters": 30, "seed": 1,
                          "init": [-1.0, 1.0], "retry_cap": 0},
            "baseline": {"enabled": True, "step_scale": 50.0},
            "trials": 1,
            "workers": 1,
            "output_dir": str(tmp_path / "rgf"),
        }
        with pytest.raises(
            RuntimeError,
            match=r"^trial 0 failed after 31 rows: baseline step estimate of agent \d+ at "
            "iteration 1: ",
        ):
            run_experiment(config_from_dict(raw))
        rows = read_trace_csv(tmp_path / "rgf" / "trial_000.csv")
        assert [(r["method"], r["iter"]) for r in rows] == (
            [("primal_dual", r) for r in range(1, 31)] + [("rgf", 1)]
        )

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

    @pytest.mark.parametrize("failure", ["box exhaustion", "divergence", "meter exhaustion"])
    def test_failure_after_several_blocks_keeps_every_row(self, tmp_path, monkeypatch, failure):
        # rows are graded in blocks of 4 on the 3-ring; the run fails in its
        # third block, and every row before the failure reaches the CSV
        monkeypatch.setattr(engine, "_GRADE_BLOCK", 4 * 3)
        rows, calls, algo = 9, [], {}
        if failure == "box exhaustion":
            # step estimate 9 fails: row 9 is recorded before the failure
            batch = engine.estimate_batch

            def exhausted(*args):
                calls.append(1)
                if len(calls) == rows + 1:
                    raise szo.BoxExhausted(1, 0)
                return batch(*args)

            monkeypatch.setattr(engine, "estimate_batch", exhausted)
            message = f"step estimate of agent 2 at iteration {rows}: smoothing perturbation"
        elif failure == "divergence":
            # step 9 returns a NaN x^10
            primal = engine.primal_step

            def diverging(*args):
                calls.append(1)
                x = primal(*args)
                return np.full_like(x, np.nan) if len(calls) == rows + 1 else x

            monkeypatch.setattr(engine, "primal_step", diverging)
            message = rf"primal_dual diverged at iteration {rows + 1}: agent 1 has x = \[nan\]$"
        else:
            # the meter's estimate for row 10 fails: rows 1..9 are recorded
            algo["gap_gradient"], algo["mc_gap_samples"] = "mc", 4
            batch = engine.estimate_batch

            def meter_exhausted(*args):
                if args[3].samples == algo["mc_gap_samples"]:
                    calls.append(1)
                    if len(calls) == rows + 1:
                        raise szo.BoxExhausted(1, 0)
                return batch(*args)

            monkeypatch.setattr(engine, "estimate_batch", meter_exhausted)
            message = f"meter estimate of agent 2 at iteration {rows + 1}: smoothing perturbation"
        raw = _tiny_raw(tmp_path / "o", iters=20, **algo)
        raw.update(trials=1, workers=1, baseline={"enabled": False})
        with pytest.raises(RuntimeError, match=rf"^trial 0 failed after {rows} rows: {message}"):
            run_experiment(config_from_dict(raw))
        got = read_trace_csv(tmp_path / "o" / "trial_000.csv")
        assert [r["method"] for r in got] == ["primal_dual"] * rows
        assert [r["iter"] for r in got] == list(range(1, rows + 1))

    def test_failed_trial_stops_the_running_trials(self, tmp_path, monkeypatch):
        # trial 0 fails once trial 1 has started a long run; trial 1 ends at
        # its next row, keeps its rows, and trial 0's failure is raised
        started = tmp_path / "started"
        started.mkdir()
        real = harness.run_centralized

        def engine_stub(topo, objectives, params, trial, *args, **kwargs):
            (started / f"{trial}").touch()
            if trial == 0:
                deadline = time.monotonic() + 30.0
                while not (started / "1").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise RuntimeError("stub trial 0")
            return real(topo, objectives, params, trial, *args, **kwargs)

        monkeypatch.setattr(harness, "run_centralized", engine_stub)
        raw = _tiny_raw(tmp_path / "out", iters=20000)
        raw.update(trials=3, workers=2, baseline={"enabled": False})
        with pytest.raises(RuntimeError, match=r"^trial 0 failed after 0 rows: stub trial 0$"):
            run_experiment(config_from_dict(raw))
        rows = read_trace_csv(tmp_path / "out" / "trial_001.csv")
        assert len(rows) < 20000
        assert [r["iter"] for r in rows] == list(range(1, len(rows) + 1))

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
        # a short row, a cell that is not a number, and a trial or iter that
        # is not an integer each name the file and the row
        bad = tmp_path / "bad.csv"
        for row in (
            "primal_dual,0,1,2",
            "primal_dual,0,1,abc,0.5,0.25,1.0",
            "primal_dual,0.5,1,1.0,0.5,0.25,1.0",
            "primal_dual,0,x,1.0,0.5,0.25,1.0",
        ):
            bad.write_text(f"{CSV_HEADER}\n{row}\n")
            with pytest.raises(ValueError, match=f"^malformed CSV row in {re.escape(str(bad))}: "):
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

    @pytest.mark.parametrize("weight", [None, 40.0])
    def test_validator_judges_the_constants_a_run_derives(self, tmp_path, weight):
        cfg = config_from_dict(_tiny_raw(tmp_path / "o", potential_weight=weight))
        res = engine.run_centralized(cfg.topology, cfg.objectives, cfg.params)
        assert validate_config(cfg).constants == res.constants

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
        # unreadable files are config errors that name the file
        undecodable = tmp_path / "latin.json"
        undecodable.write_bytes(b"\xff{}")
        for path, problem in ((tmp_path, "Is a directory"), (undecodable, "'utf-8' codec")):
            capsys.readouterr()
            assert cli_main(["validate", str(path)]) == 2
            assert f"config error: config: cannot read {path}: " in capsys.readouterr().err
            with pytest.raises(ConfigError, match=problem):
                load_config(path)

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


def test_every_exported_name_resolves():
    # a name deleted from a module but left in its __all__ fails only on a
    # star import, which the package's own __init__ does
    exported = Counter()
    for info in pkgutil.iter_modules(zopd.__path__):
        module = importlib.import_module(f"zopd.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"zopd.{info.name}.__all__ names {missing}"
        exported.update(getattr(module, "__all__", ()))
    # the package republishes exactly the modules' lists, each name from one home
    assert sorted(zopd.__all__) == sorted(exported)
    assert [n for n, k in exported.items() if k > 1] == []
    assert [n for n in zopd.__all__ if not hasattr(zopd, n)] == []


def _load_tracer():
    """perfbench/tracer.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    # the benchmark's tracer wraps these names; one that is gone makes its
    # traced runs report it absent from zopd
    tracer = _load_tracer()
    absent = [
        f"{home}.{func}"
        for _, func, (home, *_) in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"zopd.{home}"), func, None))
    ]
    absent += [m for m in tracer.STACKED_METHODS if not hasattr(zopd.StackedObjective, m)]
    assert absent == []
