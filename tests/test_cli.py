"""CLI subcommands: exit codes, CSV/JSON outputs, determinism hashing, sweeps."""

import csv
import json

import numpy as np
import pytest

from tripletdist import Domain, SqrtMahalanobis, fixture_smoothness
from tripletdist.cli import main, random_psd, run_hash

# The CSV header of each subcommand; the CSV and run_hash depend on this order.
COLUMNS = {
    "learn-finite": ["n", "p", "seed", "query_count", "budget", "violations", "wall_time"],
    "learn-maha": ["p", "kappa", "eps", "mode", "seed", "query_count", "budget",
                   "frobenius_error", "wall_time"],
    "learn-hessian": ["p", "eps", "fixture", "seed", "query_count", "budget",
                      "frobenius_error", "wall_time"],
    "learn-additive": ["omega", "radius", "centers", "samples", "seed", "query_count",
                       "budget", "eligible", "violations", "wall_time"],
    "learn-mult": ["omega", "eps", "xi", "theta", "centers", "scale", "samples", "seed",
                   "query_count", "budget", "eligible", "violations", "wall_time"],
    "audit": ["audit", "fixture", "p", "samples", "seed", "value", "threshold", "ok",
              "wall_time"],
}


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


def test_audit_negative_m_third_scale_is_an_error(capsys):
    code = main(["audit", "--audit", "taylor", "--samples", "200", "--m-third-scale", "-1"])
    assert code == 1
    assert "M_third" in capsys.readouterr().err


def test_unknown_subcommand_is_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["learn-everything"])
    assert exc.value.code == 2
    # there is one cover builder, so learn-additive takes no --cover flag
    with pytest.raises(SystemExit) as exc:
        main(["learn-additive", "--cover", "greedy"])
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


def test_learn_additive_announces_grid_and_budget_on_stderr(capsys):
    code = main(["learn-additive", "--p", "1", "--omega", "0.5", "--samples", "200"])
    captured = capsys.readouterr()
    assert code == 0
    # 4 centers: thm1 budget 4 * (ceil(3 log2 3) + 3) = 32
    assert captured.err.splitlines() == [
        "learn-additive: radius 0.125 gives a 4-center grid, thm1 budget 32 queries"]
    assert "thm1 budget" not in captured.out
    assert captured.out.rstrip().endswith("RESULT: PASS")


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


def test_column_orders_are_stable(tmp_path, capsys):
    mult_cfg = tmp_path / "mult.json"
    mult_cfg.write_text(json.dumps({
        "fixture": "squared-mahalanobis", "p": 2, "matrix": [[1.0, 0.05], [0.05, 1.02]],
        "m_third_floor": 1.0, "l_hess_floor": 1.0, "samples": 200, "max_centers": 20}))
    small = {
        "learn-finite": ["--n", "4"],
        "learn-maha": ["--p", "2", "--eps", "1e-2"],
        "learn-hessian": ["--p", "2", "--eps", "1e-2"],
        "learn-additive": ["--p", "1", "--omega", "0.5", "--samples", "200"],
        "learn-mult": ["--config", str(mult_cfg)],
        "audit": ["--samples", "200"],
    }
    for command, columns in COLUMNS.items():
        out = tmp_path / command
        code, _ = _run(capsys, [command, *small[command], "--out", str(out)])
        assert code == 0, command
        with open(out.with_suffix(".csv")) as fh:
            assert next(csv.reader(fh)) == columns, command


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


# Full run_hash of fast configurations (numpy 2.4). A change that moves one
# changes queries, answers or what the outputs store, and must say so.
PINNED_HASHES = {
    "learn-additive": ("learn-additive --omega 0.5 --p 2 --samples 5000 --seed 3",
                       "fc0d666f2a835b872a0d3dde23ad0a995c94b6bb9a6e16862e2c86f4243369d1"),
    "learn-mult": ("learn-mult --omega 0.5 --samples 5000 --seed 3 "
                   "--fixture varying-hessian-quadratic --max-centers 36",
                   "b0358e69c76cd146ae5e7bb1ab13132f35b64fe0ce18373d2338172a985bff0e"),
    "learn-finite": ("learn-finite --n 12 --p 3 --seed 3",
                     "20dd0a62783b34bd404bbc9ef866881a8798aa2557e85a3a7fc5697521b67a74"),
    "learn-maha": ("learn-maha --p 4 --kappa 10 --eps 1e-3 --seed 3",
                   "279d7738f339f143aef0f95ed01492afc8493e150acf6051f1c47431024a43e1"),
    "learn-hessian": ("learn-hessian --p 2 --eps 1e-2 --fixture varying-hessian-quadratic "
                      "--seed 3",
                      "69b9749f22755f964af4dab715ba0bc1462633b0b64dd8f60a7f0d0d2ec13ccb"),
    "audit-taylor": ("audit --audit taylor --seed 3",
                     "6eb644ad6dc85bd866ae27d647dcdc9f61ea100ec18351eaa5bbdf5132cb28ed"),
    "audit-sandwich": ("audit --audit sandwich --seed 3",
                       "bb31f9a809850f6fcc9ebbebeda89395b3c20396d8f26cb109dfedee8574d15a"),
    "audit-hessian-band": ("audit --audit hessian-band --seed 3",
                           "6c2b99ab09e5d64c438094229cb4dfe56b9c44e77e0f612d3dfe4a45c23afdb7"),
}


@pytest.mark.parametrize("argv, digest", PINNED_HASHES.values(), ids=PINNED_HASHES)
def test_run_hash_pinned(capsys, argv, digest):
    code, out = _run(capsys, argv.split())
    assert code == 0
    assert _hash_of(out) == digest


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


def _params_file(tmp_path, **rename):
    """Honest params for the p=1 sqrt-mahalanobis default fixture, keys renamed as asked."""
    params = fixture_smoothness(SqrtMahalanobis(np.eye(1)), Domain.unit_box(1)).to_json_dict()
    path = tmp_path / "params.json"
    path.write_text(json.dumps({rename.get(k, k): v for k, v in params.items()}))
    return path


def test_learn_additive_params_file(tmp_path, capsys):
    path = _params_file(tmp_path)
    assert json.loads(path.read_text())["delta_floor"] == "inf"
    out = tmp_path / "additive"
    code, text = _run(capsys, ["learn-additive", "--p", "1", "--omega", "0.2", "--samples",
                               "2000", "--params-file", str(path), "--out", str(out)])
    assert code == 0
    assert "RESULT: PASS" in text
    assert json.loads(out.with_suffix(".json").read_text())["rows"][0]["centers"] == 10


def test_params_file_with_misspelt_key_is_an_error(tmp_path, capsys):
    path = _params_file(tmp_path, kappa0="kappa_0")
    code = main(["learn-additive", "--p", "1", "--omega", "0.2", "--samples", "200",
                 "--params-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "RESULT" not in captured.out
    assert "error:" in captured.err and "kappa_0" in captured.err


def test_learn_maha_rejects_keys_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "maha.json"
    cfg.write_text(json.dumps({"p": 2, "fixture": "squared-mahalanobis", "mode": "noisy"}))
    code = main(["learn-maha", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "fixture" in err and "mode" in err
    # learn-additive reads no cover key: there is one cover builder
    cfg.write_text(json.dumps({"cover": "greedy"}))
    code = main(["learn-additive", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "'cover'" in err


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
