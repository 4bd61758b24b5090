"""Campaign runner: seeding, parallel determinism, table formats."""

import csv
import json
import math

import numpy as np
import pytest

from partid import (ExperimentConfig, RiskDemoConfig, StoppingConfig,
                    Threshold, UnionHalfSpaces, ball, experiments, gaussian,
                    risk_demo, run, run_experiment, run_single, solve,
                    write_rows_csv, write_summary_json)
from partid.experiments import (derive_seed_sequence, write_risk_csv,
                                write_risk_json)


def _count_calls(monkeypatch, *names):
    """Record in a list, by name, each call the experiments module makes
    to the named functions it imports."""
    calls = []
    for name in names:
        real = getattr(experiments, name)

        def wrapper(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(experiments, name, wrapper)
    return calls


def small_campaign(**overrides) -> ExperimentConfig:
    base = dict(
        arms=(gaussian(1.0), gaussian(1.0)),
        true_means=(2.0, 0.0),
        partition=Threshold(1.0),
        deltas=(0.2, 0.05),
        replications=5,
        seed=7,
        max_steps=20_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:

    def test_row_layout_is_delta_major(self):
        cfg = small_campaign()
        report = run_experiment(cfg)
        assert len(report.rows) == len(cfg.deltas) * cfg.replications
        for di, delta in enumerate(cfg.deltas):
            block = report.rows[di * cfg.replications:
                                (di + 1) * cfg.replications]
            assert [r.delta for r in block] == [delta] * cfg.replications
            assert [r.replication for r in block] == list(range(5))

    def test_seed_column_comes_from_the_declared_derivation(self):
        # every delta's row of a replication carries the replication's seed,
        # keyed as the first delta's run was when each delta had its own
        report = run_experiment(small_campaign())
        for di in range(2):
            for ri in range(5):
                row = report.rows[di * 5 + ri]
                ss = derive_seed_sequence(7, ri)
                assert ss.entropy == np.random.SeedSequence((7, 0, ri)).entropy
                assert row.seed == int(ss.generate_state(1, np.uint64)[0])

    def test_parallel_rows_equal_serial_rows(self):
        # a threshold, a ball (truth outside) and a union (truth in the
        # polytope), whose prepared geometries keep state within a run
        for cfg in (small_campaign(),
                    small_campaign(true_means=(1.5, 1.0),
                                   partition=ball((0.0, 0.0), 1.0),
                                   replications=3),
                    small_campaign(true_means=(0.0, 0.0),
                                   partition=UnionHalfSpaces((
                                       ((1.0, 0.0), 1.0),
                                       ((0.0, 1.0), 1.2))),
                                   replications=3)):
            serial = run_experiment(cfg, parallelism=1)
            parallel = run_experiment(cfg, parallelism=4)
            assert serial.rows == parallel.rows
            assert serial.summaries == parallel.summaries

    def test_a_campaign_prepares_once(self, monkeypatch):
        # every replication of a campaign enters through run_deltas() and
        # shares one prepared geometry, and each row is the row a run() of
        # its own at that delta would give on the replication's generator
        calls = _count_calls(monkeypatch, "prepare", "run", "run_deltas")
        cfg = small_campaign(true_means=(1.5, 1.0),
                             partition=ball((0.0, 0.0), 1.0), replications=3)
        report = run_experiment(cfg, parallelism=1)
        assert calls == ["prepare"] + ["run_deltas"] * 3
        for row in report.rows:
            res = run(list(cfg.arms), cfg.true_means, cfg.partition,
                      StoppingConfig(delta=row.delta, max_steps=20_000),
                      np.random.default_rng(derive_seed_sequence(
                          7, row.replication)))
            assert (row.stop_time, row.declared, row.glr_at_stop,
                    row.counts) == (res.stop_time, res.declared.value,
                                    res.glr_at_stop,
                                    tuple(res.final_counts.tolist()))

    def test_run_single_matches_campaign_row(self):
        cfg = small_campaign(deltas=(0.2,))
        report = run_experiment(cfg)
        assert run_single(cfg, 0.2, replication=3) == report.rows[3]

    @pytest.mark.parametrize("overrides", [
        {},
        {"deltas": (0.01, 0.3, 0.1, 0.3), "replications": 4},
        {"true_means": (1.5, 1.0), "partition": ball((0.0, 0.0), 1.0),
         "deltas": (0.2, 0.02, 1e-3), "replications": 3},
    ], ids=["two_deltas", "unsorted_with_duplicate", "ball"])
    def test_run_single_matches_campaign_row_at_every_delta(self, overrides):
        cfg = small_campaign(**overrides)
        report = run_experiment(cfg)
        r = cfg.replications
        for j, delta in enumerate(cfg.deltas):
            for ri in range(r):
                assert run_single(cfg, delta, ri) == report.rows[j * r + ri]

    def test_first_delta_rows_equal_the_single_delta_campaign(self):
        # the rows at deltas[0] keep the bytes they had when every delta
        # drew a path of its own
        for overrides in ({}, {"true_means": (1.5, 1.0),
                               "partition": ball((0.0, 0.0), 1.0),
                               "deltas": (0.05, 0.2, 1e-3),
                               "replications": 3}):
            cfg = small_campaign(**overrides)
            multi = run_experiment(cfg)
            single = run_experiment(small_campaign(
                **{**overrides, "deltas": cfg.deltas[:1]}))
            assert multi.rows[:cfg.replications] == single.rows
            assert multi.summaries[0] == single.summaries[0]

    def test_summary_t_star_is_solves(self):
        for cfg in (small_campaign(),
                    small_campaign(true_means=(1.5, 1.0),
                                   partition=ball((0.0, 0.0), 1.0),
                                   replications=2)):
            sol = solve(list(cfg.arms), np.array(cfg.true_means),
                        cfg.partition)
            for s in run_experiment(cfg).summaries:
                assert s["t_star"] == sol.t_star

    def test_summary_block(self):
        cfg = small_campaign()
        report = run_experiment(cfg)
        for summary, delta in zip(report.summaries, cfg.deltas):
            assert summary["delta"] == delta
            assert summary["completed"] + summary["truncated"] == 5
            assert summary["forced_exploration_violations"] == 0
            assert summary["t_star"] == pytest.approx(2.0, rel=1e-9)
            assert len(summary["mean_weight_vector"]) == 2
            assert summary["mean_T"] > 0
        assert report.provenance["seed"] == 7
        assert report.provenance["config_digest"] == cfg.digest

    def test_all_truncated_summary_goes_nan(self):
        cfg = small_campaign(deltas=(1e-9,), replications=2, max_steps=10)
        report = run_experiment(cfg)
        s = report.summaries[0]
        assert s["completed"] == 0 and s["truncated"] == 2
        assert math.isnan(s["mean_T"]) and math.isnan(s["error_rate"])


class TestRowsCsv:

    def test_header_and_cells(self, tmp_path):
        cfg = small_campaign(deltas=(0.2,), replications=3)
        report = run_experiment(cfg)
        path = tmp_path / "rows.csv"
        write_rows_csv(report.rows, str(path))

        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["delta", "replication", "seed", "stop_time",
                              "declared", "correct", "glr_at_stop",
                              "n1", "n2"]
        assert len(records) == 4
        for rec, row in zip(records[1:], report.rows):
            assert float(rec[0]) == row.delta
            assert int(rec[1]) == row.replication
            assert int(rec[2]) == row.seed
            assert int(rec[3]) == row.stop_time
            assert rec[4] == row.declared
            assert rec[5] in ("true", "false")
            assert float(rec[6]) == row.glr_at_stop
            assert int(rec[7]) + int(rec[8]) == row.stop_time

    def test_bytes_identical_across_parallelism(self, tmp_path):
        cfg = small_campaign()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(run_experiment(cfg, parallelism=1).rows, str(a))
        write_rows_csv(run_experiment(cfg, parallelism=4).rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_empty_and_ragged(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            write_rows_csv([], str(tmp_path / "empty.csv"))
        rows = run_experiment(small_campaign(deltas=(0.2,),
                                             replications=2)).rows
        from dataclasses import replace
        ragged = [rows[0], replace(rows[1], counts=(1, 2, 3))]
        with pytest.raises(ValueError, match="inconsistent"):
            write_rows_csv(ragged, str(tmp_path / "ragged.csv"))


class TestSummaryJson:

    def test_round_trip(self, tmp_path):
        cfg = small_campaign(deltas=(0.2,), replications=3)
        report = run_experiment(cfg)
        path = tmp_path / "summary.json"
        write_summary_json(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["provenance"]["config_digest"] == cfg.digest
        assert payload["summaries"][0]["delta"] == 0.2
        assert payload["summaries"][0]["forced_exploration_violations"] == 0

    def test_nan_becomes_null(self, tmp_path):
        cfg = small_campaign(deltas=(1e-9,), replications=2, max_steps=10)
        path = tmp_path / "summary.json"
        write_summary_json(run_experiment(cfg), str(path))
        payload = json.loads(path.read_text())
        assert payload["summaries"][0]["mean_T"] is None


def small_risk(**overrides) -> RiskDemoConfig:
    base = dict(n_outer=8, horizon=3, u=1.0, inner_delta=0.1,
                volatility=1.0, seed=5, max_steps=5_000)
    base.update(overrides)
    return RiskDemoConfig(**base)


class TestRiskDemo:

    def test_smoke(self):
        report = risk_demo(small_risk())
        assert len(report.rows) == 8
        s = report.summary
        assert 0.0 <= s["gamma_hat"] <= 1.0
        assert 0.0 <= s["gamma_exact"] <= 1.0
        assert s["abs_gap"] == pytest.approx(
            abs(s["gamma_hat"] - s["gamma_exact"]))
        assert s["disagreements"] == sum(r.w_declared != r.w_exact
                                         for r in report.rows)
        assert s["forced_exploration_violations"] == 0

    def test_zero_volatility_paths_are_deterministic(self):
        # flat path at zero: crossing u is decided by sign(u) alone
        low = risk_demo(small_risk(volatility=0.0, u=-1.0, n_outer=4))
        assert low.summary["gamma_exact"] == 1.0
        assert low.summary["gamma_hat"] == 1.0
        high = risk_demo(small_risk(volatility=0.0, u=1.0, n_outer=4))
        assert high.summary["gamma_exact"] == 0.0
        assert high.summary["gamma_hat"] == 0.0

    def test_parallel_rows_equal_serial_rows(self):
        cfg = small_risk()
        assert risk_demo(cfg, parallelism=1).rows == \
            risk_demo(cfg, parallelism=3).rows

    def test_writers(self, tmp_path):
        cfg = small_risk(n_outer=4)
        report = risk_demo(cfg)
        csv_path = tmp_path / "paths.csv"
        write_risk_csv(report.rows, str(csv_path))
        with open(csv_path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["path", "seed", "w_exact", "w_declared",
                              "stop_time", "truncated"]
        assert [int(rec[0]) for rec in records[1:]] == [0, 1, 2, 3]

        json_path = tmp_path / "risk.json"
        write_risk_json(report, str(json_path))
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["n_outer"] == 4
        assert payload["provenance"]["config_digest"] == cfg.digest


# (path, stop_time, w_declared, truncated) of risk_demo(small_risk()). The
# run step's Gaussian threshold divergence is shared by inner_inf, solve and
# the run, so parity between them cannot see all three drift together;
# these rows can, and a change here is a trajectory change.
RISK_PINNED = [(0, 46, 0, False), (1, 51, 1, False), (2, 11, 1, False),
               (3, 11, 0, False), (4, 22, 0, False), (5, 12, 0, False),
               (6, 34, 0, False), (7, 35, 1, False)]


def test_risk_demo_rows_pinned():
    report = risk_demo(small_risk())
    assert [(r.path, r.stop_time, r.w_declared, r.truncated)
            for r in report.rows] == RISK_PINNED
