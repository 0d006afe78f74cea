import math
import warnings

import numpy as np
import pytest

from onebitcs import harness


def small_config(**overrides):
    base = dict(scheme="ppcs", n=256, k=2, delta=0.1, trials=6, seed=11)
    base.update(overrides)
    return harness.ExperimentConfig(**base)


class TestRun:
    def test_ppcs_trials_succeed(self):
        records = harness.run_experiment(small_config())
        assert len(records) == 6
        assert all(r.m_total > 0 for r in records)
        assert sum(r.success for r in records) >= 5

    def test_ppq_scheme(self):
        records = harness.run_experiment(small_config(scheme="ppq", model="sparse-plus-tail"))
        assert sum(r.success for r in records) >= 5

    def test_btree_scheme(self):
        records = harness.run_experiment(small_config(scheme="btree", n=256, k=2, b=4))
        assert sum(r.success for r in records) >= 5
        assert all(r.decode_ops > 0 for r in records)

    def test_expander_scheme(self):
        records = harness.run_experiment(small_config(scheme="expander", n=1 << 10, k=2))
        assert sum(r.success for r in records) >= 5

    def test_pipeline_success_predicate(self):
        records = harness.run_experiment(
            small_config(scheme="pipeline", n=256, k=1, delta=0.4, mg=1500)
        )
        for r in records:
            assert r.success == (r.err_sq <= 2 * r.tail_sq + r.delta)

    @pytest.mark.parametrize("scheme", list(harness.SCHEMES))
    def test_every_scheme_runs_at_its_defaults_without_a_warning(self, scheme):
        # build, measure and decode (a point query for ppq) of one trial
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = harness.run_experiment(small_config(scheme=scheme, trials=1))
        assert len(records) == 1 and records[0].m_total > 0

    def test_rejects_bad_scheme_before_running(self):
        with pytest.raises(ValueError):
            harness.run_experiment(small_config(scheme="nope"))

    def test_rejects_oversize_expander_sparsity(self):
        with pytest.raises(ValueError):
            harness.run_experiment(small_config(scheme="expander", n=256, k=32))

    def test_wall_ms_zero_without_timing(self):
        records = harness.run_experiment(small_config())
        assert all(r.wall_ms == 0.0 for r in records)

    def test_wall_ms_real_with_timing(self):
        records = harness.run_experiment(small_config(timing=True))
        assert any(r.wall_ms > 0.0 for r in records)

    def test_btree_decode_ops_growth_tracks_formula(self):
        # decode work grows like b*k*log(n/k)/log(b) across a dimension sweep
        k, b = 2, 4
        ops = {}
        for exp in (10, 12, 14):
            n = 1 << exp
            records = harness.run_experiment(
                small_config(scheme="btree", n=n, k=k, b=b, trials=4, seed=31)
            )
            ops[n] = float(np.median([r.decode_ops for r in records]))
        observed = ops[1 << 14] / ops[1 << 10]
        predicted = math.log2((1 << 14) / k) / math.log2((1 << 10) / k)
        assert predicted / 2 <= observed <= predicted * 2


class TestReport:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        a = harness.render_report(harness.run_experiment(cfg), cfg)
        b = harness.render_report(harness.run_experiment(cfg), cfg)
        assert a == b

    def test_csv_round_trip(self, tmp_path):
        cfg = small_config()
        records = harness.run_experiment(cfg)
        path = tmp_path / "out.csv"
        harness.emit_report(records, str(path), cfg)
        assert harness.parse_report(str(path)) == records

    def test_column_order(self, tmp_path):
        cfg = small_config()
        records = harness.run_experiment(cfg)
        path = tmp_path / "out.csv"
        harness.emit_report(records, str(path), cfg)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(harness.CSV_COLUMNS)

    def test_summary_ci(self):
        cfg = small_config()
        records = harness.run_experiment(cfg)
        forced = [
            r if i < 3 else harness.TrialRecord(**{**r.__dict__, "success": False})
            for i, r in enumerate(records)
        ]
        summary = harness.summarize(forced)
        p = summary.rate
        assert math.isclose(
            summary.ci_halfwidth, 1.96 * math.sqrt(p * (1 - p) / len(forced))
        )

    def test_summary_ci_reference_point(self):
        # 93 successes out of 100: rate 0.93 with half-width about 0.05
        template = harness.run_experiment(small_config(trials=1))[0]
        records = [
            harness.TrialRecord(**{**template.__dict__, "trial_id": i, "success": i < 93})
            for i in range(100)
        ]
        summary = harness.summarize(records)
        assert summary.rate == 0.93
        assert abs(summary.ci_halfwidth - 0.05) <= 0.005

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_report([], str(tmp_path / "x.csv"))

    def test_unwritable_path(self):
        cfg = small_config()
        records = harness.run_experiment(cfg)
        with pytest.raises(OSError):
            harness.emit_report(records, "/nonexistent-dir/x.csv", cfg)


class TestConfig:
    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "scheme = btree\n"
            "n=512   # trailing comment\n"
            "k=2\n"
            "\n"
            "trials=3\n",
            encoding="utf-8",
        )
        values = harness.read_config_file(str(path))
        assert values == {"scheme": "btree", "n": "512", "k": "2", "trials": "3"}

    def test_flags_override_file(self, tmp_path):
        file_values = {"scheme": "btree", "n": "512", "trials": "3"}
        flag_values = {"n": 1024, "seed": 9}
        cfg = harness.config_from_mappings(file_values, flag_values)
        assert cfg.scheme == "btree"
        assert cfg.n == 1024
        assert cfg.trials == 3
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            harness.config_from_mappings({"bogus": "1"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError):
            harness.read_config_file(str(path))


@pytest.mark.parametrize("call, match", [
    (lambda: harness.ExperimentConfig(scheme="bogus").validate(), "unknown scheme"),
    (lambda: harness.ExperimentConfig(trials=0).validate(), "at least one trial"),
    (lambda: harness.ExperimentConfig(n=8, k=9).validate(), "need 1 <= k <= n"),
    (lambda: harness.ExperimentConfig(delta=1.0).validate(), "delta must be in"),
    (lambda: harness.ExperimentConfig(model="bogus").validate(), "unknown signal model"),
    (lambda: harness.summarize([]), "no trial records"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
