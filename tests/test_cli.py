import concurrent.futures
import csv
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from wavekam import cli
from wavekam.cli import CONFIG_SCHEMA, main
from wavekam.kam import MAX_SCAN_ELLS
from wavekam.resonance import classify_omega
from wavekam.verify import SUITES

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src/wavekam/configs"


def run_cli(*argv):
    return main(list(argv))


class TestConfigValidation:
    def test_malformed_yaml_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [unclosed\n")
        assert run_cli("run", "--config", str(bad)) == 2
        assert "config error" in capsys.readouterr().err

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        cfg = yaml.safe_load((CONFIG_DIR / "eps0.yaml").read_text())
        cfg["numerics"]["j_max"] = "six"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        assert run_cli("run", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert "numerics/j_max" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = yaml.safe_load((CONFIG_DIR / "eps0.yaml").read_text())
        cfg["numerics"]["typo_key"] = 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        assert run_cli("run", "--config", str(bad)) == 2

    def test_missing_file_exit_2(self):
        assert run_cli("run", "--config", "/nonexistent.yaml") == 2

    def test_directory_or_non_utf8_config_exit_2(self, tmp_path, capsys):
        binary = tmp_path / "latin1.yaml"
        binary.write_bytes("problem: {d: 2}  # \xe9\n".encode("latin-1"))
        for path in (tmp_path, binary):
            assert run_cli("run", "--config", str(path),
                           "--out", str(tmp_path / "out")) == 2
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # (base config, key path, value, key named): each value is malformed for
    # nu = d = 2, j_max = 2, ell_max = 4
    SIZE_CASES = [
        ("eps0", "problem/a", {"kind": "cosine", "ell": [1]}, "problem/a/ell"),
        ("eps0", "problem/a", {"kind": "cosine", "ell": [20, 0]}, "problem/a/ell"),
        ("eps0", "problem/a", {"kind": "cosine"}, "problem/a/ell"),
        ("eps0", "problem/a", {"kind": "modes", "modes": [{"ell": [1, 2, 0]}]},
         "problem/a/modes/0/ell"),
        ("eps0", "problem/a", {"kind": "random", "support": 5},
         "problem/a/support"),
        ("eps0", "problem/rank_pairs/0/b/modes/0/j", [1],
         "problem/rank_pairs/0/b/modes/0/j"),
        ("eps0", "problem/rank_pairs/0/c/modes/0/j", [0, 0],
         "problem/rank_pairs/0/c/modes/0/j"),
        ("eps0", "problem/rank_pairs/0/c/modes/0/j", [2, 1],
         "problem/rank_pairs/0/c/modes/0/j"),
        ("eps0", "problem/rank_pairs/0/b/modes/0/ell", [0, -5],
         "problem/rank_pairs/0/b/modes/0/ell"),
        ("kirchhoff-lin", "problem/kirchhoff_v0/modes/1", {"ell": [0, 1]},
         "problem/kirchhoff_v0/modes/1/j"),
        ("kirchhoff-lin", "problem/kirchhoff_v0/random", {"support": 9},
         "problem/kirchhoff_v0/random/support"),
        ("eps0", "run/omega", [1.0], "run/omega"),
        ("kirchhoff-lin", "run/omegas/1", [1.3, 1.8, 1.1], "run/omegas/1"),
        ("eps0", "run/contrast_omega", [1.5], "run/contrast_omega"),
        ("kirchhoff-lin", "run/omega_grid/box", [[1.0, 2.0]], "run/omega_grid/box"),
        ("kirchhoff-lin", "run/omega_grid/counts", [40], "run/omega_grid/counts"),
    ]

    @pytest.mark.parametrize("base,path,value,key", SIZE_CASES)
    def test_size_violation_exit_2(self, tmp_path, capsys, base, path, value,
                                   key):
        cfg = yaml.safe_load((CONFIG_DIR / f"{base}.yaml").read_text())
        *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")]
        node = cfg
        for k in parents:
            node = node[k]
        node[last] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_schema_is_a_valid_schema(self):
        from jsonschema.validators import validator_for

        validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return []


class TestThreads:
    def test_nonpositive_threads_exit_2(self, tmp_path, capsys):
        for k in ("0", "-3"):
            out = tmp_path / k
            assert run_cli("run", "--config", str(CONFIG_DIR / "eps0.yaml"),
                           "--out", str(out), "--threads", k) == 2
            assert "--threads must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("threads,n_omega,cpus,workers", [
        (8, 2, 4, 2),        # clamped to the number of omega
        (100000, 3, 2, 2),   # clamped to the cores
        (2, 3, None, None),  # one core known: serial, no pool
        (1, 3, 2, None),
    ])
    def test_worker_count_clamped(self, monkeypatch, tmp_path, threads,
                                  n_omega, cpus, workers):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        ran = []

        def serial_worker(payload):
            ran.append(payload)
            return None, SimpleNamespace(
                history=[], residual=1.0, verdict="max-steps", converged=False,
                state=SimpleNamespace(step=0), conjugation_residual=1.0)

        monkeypatch.setattr(cli, "_kam_worker", serial_worker)
        problem = SimpleNamespace(nu=2, d=2, gamma=1e-3, dd=4)
        cfg = {"numerics": {}, "run": {"omega": [1.0, 1.5]}}
        omegas = [[1.0 + 0.1 * i, 1.5] for i in range(n_omega)]
        cli.phase_kam(problem, cfg, omegas, tmp_path, {}, threads=threads)
        assert RecordingPool.sizes == ([] if workers is None else [workers])
        assert len(ran) == (n_omega if workers is None else 0)


class TestRunVerb:
    def test_eps0_bundle_all_rounding_level(self, tmp_path):
        out = tmp_path / "eps0"
        rc = run_cli("run", "--config", str(CONFIG_DIR / "eps0.yaml"),
                     "--out", str(out))
        assert rc == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 0
        assert "config_sha256" in manifest
        summary = (out / "summary.md").read_text()
        assert "| m | 1.000000000000 |" in summary
        with open(out / "kam_convergence_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["verdict"] == "converged"
        assert float(rows[-1]["residual"]) <= 1e-13

    def test_reproducible_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = run_cli("run", "--config", str(CONFIG_DIR / "eps0.yaml"),
                         "--out", str(out), "--phases", "pipeline,kam")
            assert rc == 0
        for name in ("kam_convergence_0.csv", "d_infinity_0.json",
                     "r4_blocks.json", "pipeline_stages.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_phase_override_flag(self, tmp_path):
        out = tmp_path / "p"
        rc = run_cli("run", "--config", str(CONFIG_DIR / "eps0.yaml"),
                     "--out", str(out), "--phases", "pipeline")
        assert rc == 0
        assert (out / "pipeline_stages.csv").exists()
        assert not (out / "kam_convergence_0.csv").exists()

    def test_seed_flag_changes_random_data(self, tmp_path):
        cfg = yaml.safe_load((CONFIG_DIR / "eps0.yaml").read_text())
        cfg["problem"]["epsilon"] = 1e-3
        cfg["problem"]["a"] = {"kind": "random", "n_modes": 3, "support": 1,
                               "scale": 1.0}
        cfg["run"]["phases"] = ["pipeline"]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        outs = {}
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run_cli("run", "--config", str(path), "--out", str(out),
                           "--seed", str(seed)) == 0
            outs[seed] = (out / "r4_blocks.json").read_text()
        assert outs[1] != outs[2]


class TestResourceLimits:
    def test_huge_cutoff_exits_3_with_certificate(self, tmp_path, capsys):
        # N_0 = 100000 would mean ~3e10 ell in the first Melnikov scan
        cfg = yaml.safe_load((CONFIG_DIR / "kirchhoff-lin.yaml").read_text())
        cfg["numerics"]["n0"] = 100000
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        t0 = time.monotonic()
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 3
        assert time.monotonic() - t0 < 60.0
        assert "numerical failure" in capsys.readouterr().err
        payload = json.loads((out / "failure_certificate.json").read_text())
        assert payload["error"] == "ResourceLimitError"
        cert = payload["certificate"]
        assert cert["kind"] == "ell-cap"
        assert cert["N_k"] == 100000 and cert["nu"] == 2
        assert cert["n_ell"] > cert["cap"] == MAX_SCAN_ELLS


class TestOtherVerbs:
    def test_verify_tap_output(self, capsys):
        rc = run_cli("verify", "measure")
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("1..")
        assert "ok 1 - " in out

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
    def test_verify_suite_passes(self, suite, capsys):
        rc = run_cli("verify", suite)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert rows and all(r.startswith("ok ") for r in rows), rows

    @pytest.mark.parametrize("verb, flag, value", [
        ("dump", "--threads", "2"), ("dump", "--phases", "kam"),
        ("dump", "--gamma-list", "0.01"), ("sweep", "--phases", "kam"),
        ("sweep", "--threads", "2"),
    ])
    def test_flags_a_verb_never_reads_exit_2(self, tmp_path, capsys, verb,
                                             flag, value):
        out = tmp_path / verb
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--config", str(CONFIG_DIR / "eps0.yaml"),
                    "--out", str(out), flag, value)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("verify", "nope")

    def test_sweep_verb(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli("sweep", "--config", str(CONFIG_DIR / "kirchhoff-lin.yaml"),
                     "--out", str(out),
                     "--gamma-list", "0.02,0.01,0.005,0.0025")
        assert rc == 0
        with open(out / "measure_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        fr = [float(r["fraction"]) for r in rows]
        assert fr == sorted(fr, reverse=True)
        assert (out / "certificates.jsonl").exists()

    def test_dump_verb(self, tmp_path):
        out = tmp_path / "dump"
        rc = run_cli("dump", "--config", str(CONFIG_DIR / "eps0.yaml"),
                     "--out", str(out))
        assert rc == 0
        lattice = json.loads((out / "lattice.json").read_text())
        assert lattice["d"] == 2
        total = sum(len(c["points"]) for c in lattice["clusters"])
        assert total == 12
        assert (out / "rank_b_0.json").exists()


class TestMeasurePhase:
    KIR = CONFIG_DIR / "kirchhoff-lin.yaml"

    def sweep(self, out, config=KIR, *extra):
        assert run_cli("sweep", "--config", str(config), "--out", str(out),
                       *extra) == 0
        lines = (out / "certificates.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_certificates_equal_one_row_calls(self, monkeypatch, tmp_path):
        calls = []

        def spy(omega, *args, **kwargs):
            calls.append((omega, args, kwargs))
            return classify_omega(omega, *args, **kwargs)

        monkeypatch.setattr(cli, "classify_omega", spy)
        lines = self.sweep(tmp_path / "kir")
        # one batched call over the grid prefix, at the largest gamma
        [(rows, args, kwargs)] = calls
        assert rows.shape == (64, 2) and args[1] == 0.01
        assert [line["omega"] for line in lines] == rows.tolist()
        assert not all(line["accepted"] for line in lines)
        for line, w in zip(lines, rows):
            assert line == classify_omega(w, *args, **kwargs).to_json()

    def test_certified_at_largest_gamma_in_any_order(self, tmp_path):
        for name, gammas in (("desc", "0.01,0.00125"),
                             ("asc", "0.00125,0.01")):
            self.sweep(tmp_path / name, self.KIR, "--gamma-list", gammas)
        assert ((tmp_path / "desc" / "certificates.jsonl").read_bytes()
                == (tmp_path / "asc" / "certificates.jsonl").read_bytes())

    def test_numerics_dd_reaches_kam_and_classifier(self, tmp_path):
        cfg = yaml.safe_load(self.KIR.read_text())
        problem = cli.build_problem(cfg, 0)
        assert cli.kam_config_for(problem, cfg).dd == problem.dd == 2 * 2
        cfg["numerics"]["dd"] = 1.0
        problem = cli.build_problem(cfg, 0)
        assert cli.kam_config_for(problem, cfg).dd == problem.dd == 1.0
        path = tmp_path / "dd.yaml"
        path.write_text(yaml.safe_dump(cfg))
        thresholds = [
            [c["threshold"] for line in self.sweep(tmp_path / name, config)
             for c in line["certificates"]]
            for name, config in (("dd", path), ("default", self.KIR))
        ]
        assert thresholds[0] != thresholds[1]


class TestKirchhoffGolden:
    def test_full_chain_completes(self, tmp_path):
        out = tmp_path / "kir"
        rc = run_cli("run", "--config",
                     str(CONFIG_DIR / "kirchhoff-lin.yaml"), "--out", str(out))
        assert rc == 0
        summary = json.loads((out / "run_manifest.json").read_text())
        assert set(summary["timings"]) >= {"pipeline", "kam", "measure",
                                           "dynamics"}
        with open(out / "measure_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["fit_r2"]) >= 0.9
        eig = json.loads((out / "d_infinity_0.json").read_text())
        n_total = sum(c["n_alpha"] for c in eig["clusters"].values())
        assert n_total == 12
