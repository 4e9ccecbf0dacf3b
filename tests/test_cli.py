"""CLI subcommands: exit codes, CSV/JSON outputs, determinism hashing, sweeps."""

import csv
import json

import numpy as np
import pytest

from tripletdist.cli import COLUMNS, main, random_psd, run_hash


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _hash_of(out: str) -> str:
    for line in out.splitlines():
        if line.startswith("run_hash="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no run_hash line in output:\n{out}")


# ---------------------------------------------------------------------------
# exit codes


def test_learn_finite_pass_exit_zero(capsys):
    code, out = _run(capsys, ["learn-finite", "--n", "6", "--p", "2", "--seed", "1"])
    assert code == 0
    assert "RESULT: PASS" in out


def test_audit_control_fails_exit_one(capsys):
    code, out = _run(capsys, ["audit", "--audit", "taylor", "--samples", "3000",
                              "--m-third-scale", "0.5"])
    assert code == 1
    assert "RESULT: FAIL" in out


def test_unknown_subcommand_is_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["learn-everything"])
    assert exc.value.code == 2


def test_sweep_without_command_exit_two(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": {"n": [4]}}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_sweep_with_empty_grid_exit_two(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"command": "learn-finite", "grid": {"n": []}}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_fixture_exit_one(capsys):
    code = main(["learn-additive", "--fixture", "mystery", "--samples", "100"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# outputs


def test_learn_finite_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "finite"
    code, text = _run(capsys, ["learn-finite", "--n", "8", "--seed", "3",
                               "--out", str(out)])
    assert code == 0
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == COLUMNS["learn-finite"]
    assert len(rows) == 2
    assert rows[1][0] == "8"  # n column
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["command"] == "learn-finite"
    assert side["ok"] is True
    assert side["run_hash"] == _hash_of(text)
    assert side["rows"][0]["n"] == 8
    assert "table" in side  # learned artifact embedded for reproducibility


def test_column_orders_are_stable():
    assert COLUMNS["learn-maha"] == ["p", "kappa", "eps", "mode", "seed",
                                     "query_count", "budget", "frobenius_error",
                                     "wall_time"]
    assert COLUMNS["learn-mult"][:6] == ["omega", "eps", "xi", "theta", "centers",
                                         "scale"]
    for cols in COLUMNS.values():
        assert cols[-1] == "wall_time"


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "p": 2, "seed": 5}))
    out = tmp_path / "run"
    code, _ = _run(capsys, ["learn-finite", "--config", str(cfg), "--n", "6",
                            "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["rows"][0]["n"] == 6
    assert side["rows"][0]["seed"] == 5


# ---------------------------------------------------------------------------
# determinism hash


def test_run_hash_ignores_wall_time():
    cols = ["n", "wall_time"]
    a = [{"n": 4, "wall_time": 0.123}]
    b = [{"n": 4, "wall_time": 9.876}]
    assert run_hash(a, cols, {}) == run_hash(b, cols, {})
    assert run_hash([{"n": 5, "wall_time": 0.1}], cols, {}) != run_hash(a, cols, {})


def test_run_hash_strips_nested_timing():
    cols = ["n"]
    rows = [{"n": 4}]
    s1 = {"report": {"x": 1}, "timing": {"total_s": 0.5}}
    s2 = {"report": {"x": 1}, "timing": {"total_s": 5.0}}
    assert run_hash(rows, cols, s1) == run_hash(rows, cols, s2)
    assert run_hash(rows, cols, {"report": {"x": 2}}) != run_hash(rows, cols, s1)


def test_repeat_run_same_seed_same_hash(capsys):
    args = ["learn-finite", "--n", "7", "--p", "3", "--seed", "11"]
    _, out1 = _run(capsys, args)
    _, out2 = _run(capsys, args)
    assert _hash_of(out1) == _hash_of(out2)


def test_different_seed_different_hash(capsys):
    _, out1 = _run(capsys, ["learn-finite", "--n", "7", "--seed", "1"])
    _, out2 = _run(capsys, ["learn-finite", "--n", "7", "--seed", "2"])
    assert _hash_of(out1) != _hash_of(out2)


# ---------------------------------------------------------------------------
# sweep


def test_sidecar_as_config_is_usage_error(tmp_path, capsys):
    """A previous run's sidecar has no key a runner reads as fixture input."""
    out = tmp_path / "run"
    assert main(["learn-finite", "--n", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["learn-finite", "--config", str(out.with_suffix(".json"))])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "'columns'" in err and "'rows'" in err


def test_sweep_unknown_base_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"command": "learn-finite", "grid": {"n": [4]},
                               "base": {"omgea": 0.1}}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "'omgea'" in capsys.readouterr().err


def test_sweep_jobs_clamped_to_cpu_count(tmp_path, capsys, monkeypatch):
    """No process starts: the pool is a serial stand-in that records max_workers."""
    import concurrent.futures
    import os

    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, _ = _run(capsys, ["sweep", "--config", str(_sweep_cfg(tmp_path)), "--jobs", "64"])
    assert code == 0
    assert seen == [3]


def _sweep_cfg(tmp_path, **extra):
    cfg = {"command": "learn-finite", "grid": {"n": [4, 5, 6]},
           "base": {"p": 2}, "seed": 100, **extra}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_grid_order_and_seeds(tmp_path, capsys):
    out = tmp_path / "sweep_run"
    code, _ = _run(capsys, ["sweep", "--config", str(_sweep_cfg(tmp_path)),
                            "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert [r["grid_index"] for r in side["rows"]] == [0, 1, 2]
    assert [r["n"] for r in side["rows"]] == [4, 5, 6]
    assert [r["seed"] for r in side["rows"]] == [100, 101, 102]
    with open(out.with_suffix(".csv")) as fh:
        header = next(csv.reader(fh))
    assert header == ["grid_index"] + COLUMNS["learn-finite"]


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    cfg = _sweep_cfg(tmp_path)
    _, out1 = _run(capsys, ["sweep", "--config", str(cfg), "--jobs", "1"])
    _, out2 = _run(capsys, ["sweep", "--config", str(cfg), "--jobs", "2"])
    assert _hash_of(out1) == _hash_of(out2)


def test_sweep_rerun_hash_identical(tmp_path, capsys):
    cfg = _sweep_cfg(tmp_path)
    _, out1 = _run(capsys, ["sweep", "--config", str(cfg)])
    _, out2 = _run(capsys, ["sweep", "--config", str(cfg)])
    assert _hash_of(out1) == _hash_of(out2)


def test_sweep_multi_parameter_product(tmp_path, capsys):
    cfg = tmp_path / "grid2.json"
    cfg.write_text(json.dumps({"command": "learn-finite",
                               "grid": {"n": [4, 5], "p": [1, 2]}, "seed": 0}))
    out = tmp_path / "grid2_run"
    code, _ = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert [(r["n"], r["p"]) for r in side["rows"]] == [(4, 1), (4, 2), (5, 1), (5, 2)]


# ---------------------------------------------------------------------------
# learner subcommands end to end (small, fast configurations)


def test_learn_maha_noiseless(tmp_path, capsys):
    out = tmp_path / "maha"
    code, _ = _run(capsys, ["learn-maha", "--p", "2", "--kappa", "4",
                            "--eps", "1e-3", "--seed", "2", "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    row = side["rows"][0]
    assert row["mode"] == "noiseless"
    assert row["frobenius_error"] <= 1e-3
    assert row["query_count"] <= row["budget"]
    assert "model" in side


def test_learn_maha_noisy_delegates_to_hessian(tmp_path, capsys):
    out = tmp_path / "maha_noisy"
    code, _ = _run(capsys, ["learn-maha", "--mode", "noisy", "--p", "2",
                            "--eps", "1e-2", "--seed", "4", "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    row = side["rows"][0]
    assert row["mode"] == "noisy"
    assert row["frobenius_error"] <= 1.1 * 1e-2
    assert "x" in side  # hessian runner records the expansion point


def test_learn_hessian_subcommand(capsys):
    code, out = _run(capsys, ["learn-hessian", "--p", "2", "--eps", "1e-2",
                              "--seed", "0"])
    assert code == 0
    assert "RESULT: PASS" in out


def test_learn_additive_subcommand(tmp_path, capsys):
    out = tmp_path / "additive"
    code, _ = _run(capsys, ["learn-additive", "--p", "1", "--omega", "0.2",
                            "--samples", "2000", "--seed", "0", "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    row = side["rows"][0]
    assert row["violations"] == 0
    assert row["centers"] == 10  # radius 0.05 grid on [0,1]
    assert side["report"]["mode"] == "additive"


def test_learn_mult_subcommand(tmp_path, capsys):
    cfg = tmp_path / "mult.json"
    cfg.write_text(json.dumps({
        "fixture": "squared-mahalanobis", "p": 2,
        "matrix": [[1.0, 0.05], [0.05, 1.02]],
        "m_third_floor": 1.0, "l_hess_floor": 1.0,
        "omega": 0.5, "samples": 2000, "max_centers": 120, "seed": 0,
    }))
    out = tmp_path / "mult"
    code, _ = _run(capsys, ["learn-mult", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    side = json.loads(out.with_suffix(".json").read_text())
    row = side["rows"][0]
    assert row["violations"] == 0
    assert row["scale"] < 1.0  # cap forced domain halvings
    assert row["centers"] <= 120
    assert side["scale_report"]["halvings"] >= 1
    assert set(side["case_counts"]) == {"both_global", "both_local", "far_near",
                                        "near_far"}


def test_audit_taylor_passes_by_default(capsys):
    code, out = _run(capsys, ["audit", "--audit", "taylor", "--samples", "3000"])
    assert code == 0
    assert "RESULT: PASS" in out


def test_audit_sandwich_and_band(capsys):
    code, _ = _run(capsys, ["audit", "--audit", "sandwich", "--samples", "3000",
                            "--seed", "1"])
    assert code == 0
    code, _ = _run(capsys, ["audit", "--audit", "hessian-band", "--seed", "1"])
    assert code == 0


# ---------------------------------------------------------------------------
# random_psd helper


def test_random_psd_condition_number(rng):
    for p in (2, 3, 5):
        M = random_psd(p, 7.0, rng)
        assert np.linalg.cond(M) == pytest.approx(7.0, rel=1e-9)
        w = np.linalg.eigvalsh(M)
        assert w.min() == pytest.approx(1.0, rel=1e-9)


def test_random_psd_unit_max_diag_preserves_kappa(rng):
    for p in (2, 4, 6):
        M = random_psd(p, 9.0, rng, unit_max_diag=True)
        assert np.max(np.diag(M)) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.cond(M) == pytest.approx(9.0, rel=1e-9)


def test_random_psd_p_one_is_identity(rng):
    np.testing.assert_array_equal(random_psd(1, 5.0, rng), np.array([[1.0]]))
