"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.eval.experiments import EXPERIMENTS
from repro.runtime import STRATEGY_REGISTRY


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(["run", "table4", "--scale", "smoke", "--seed", "3"])
        assert args.experiment == "table4"
        assert args.scale == "smoke"
        assert args.seed == 3

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_run_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table4", "--scale", "huge"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_command_parses(self):
        args = build_parser().parse_args(
            ["bench", "--spec", "spec.json", "--strategy", "heteroswitch",
             "--seeds", "0", "1", "--rounds", "2"])
        assert args.command == "bench"
        assert args.spec == "spec.json"
        assert args.strategy == "heteroswitch"
        assert args.seeds == [0, 1]
        assert args.rounds == 2

    def test_bench_executor_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--executor", "shm", "--workers", "4"])
        assert args.executor == "shm"
        assert args.workers == 4

    def test_bench_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--executor", "gpu"])

    def test_bench_rejects_removed_process_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--executor", "process"])

    def test_sweep_executor_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--strategies", "fedavg", "--executor", "thread", "--workers", "2"])
        assert args.executor == "thread"
        assert args.workers == 2

    def test_bench_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--strategy", "sgd"])

    def test_sweep_command_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--strategies", "fedavg", "heteroswitch", "--seeds", "0", "1"])
        assert args.command == "sweep"
        assert args.strategies == ["fedavg", "heteroswitch"]


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_list_describes_every_experiment(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for experiment_id in EXPERIMENTS:
            [line] = [line for line in lines if line.split()[:1] == [experiment_id]]
            assert line.split(maxsplit=1)[1:], f"'{experiment_id}' has no description"

    def test_list_prints_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for strategy in STRATEGY_REGISTRY:
            assert strategy in out
        for kind in ("strategies", "models", "datasets", "samplers", "callbacks",
                     "executors"):
            assert f"{kind}:" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig7", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "completed" in out

    def test_run_with_output_report(self, tmp_path, capsys):
        assert main(["run", "fig7", "--scale", "smoke", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "fig7.csv").exists()

    def test_run_deterministic_given_seed(self, capsys):
        main(["run", "fig7", "--scale", "smoke", "--seed", "5"])
        first = capsys.readouterr().out
        main(["run", "fig7", "--scale", "smoke", "--seed", "5"])
        second = capsys.readouterr().out
        # Strip the timing line, which legitimately differs between runs.
        strip = lambda text: "\n".join(l for l in text.splitlines() if "completed in" not in l)
        assert strip(first) == strip(second)


@pytest.fixture
def spec_file(tmp_path):
    """A tiny RunSpec JSON file (3 devices, 2 rounds) for CLI smoke runs."""
    spec = {
        "strategy": "fedavg",
        "dataset": "device_capture",
        "dataset_kwargs": {"devices": ["Pixel5", "S6", "G7"]},
        "scale": "smoke",
        "config_overrides": {"num_rounds": 2},
        "seeds": [0],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestBench:
    def test_bench_from_spec_file(self, spec_file, capsys):
        assert main(["bench", "--spec", spec_file]) == 0
        out = capsys.readouterr().out
        assert "bench" in out and "fedavg/device_capture" in out
        assert "worst_case" in out

    def test_bench_cli_overrides(self, spec_file, capsys):
        assert main(["bench", "--spec", spec_file, "--strategy", "heteroswitch",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "heteroswitch/device_capture" in out

    def test_bench_writes_report(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["bench", "--spec", spec_file, "--output", str(out_dir)]) == 0
        assert (out_dir / "report.md").exists()
        assert (out_dir / "bench.csv").exists()

    def test_bench_missing_spec_file_fails_cleanly(self, capsys):
        assert main(["bench", "--spec", "/nonexistent/spec.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read spec file")

    def test_bench_invalid_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bench", "--spec", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bench_unknown_strategy_in_spec_lists_available(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"strategy": "heteroswich"}))
        assert main(["bench", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy 'heteroswich'" in err and "heteroswitch" in err

    def test_bench_invalid_cli_override_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "central.json"
        path.write_text(json.dumps({"kind": "centralized", "dataset": "scenes"}))
        # --rounds adds a config override, which centralized specs reject.
        assert main(["bench", "--spec", str(path), "--rounds", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec after CLI overrides")

    def test_bench_deterministic_given_seed(self, spec_file, capsys):
        main(["bench", "--spec", spec_file])
        first = capsys.readouterr().out
        main(["bench", "--spec", spec_file])
        second = capsys.readouterr().out
        strip = lambda text: "\n".join(l for l in text.splitlines() if "completed in" not in l)
        assert strip(first) == strip(second)

    def test_bench_workers_without_parallel_executor_fails_cleanly(self, spec_file, capsys):
        """--workers on an (implicitly) serial run would silently do nothing."""
        assert main(["bench", "--spec", spec_file, "--workers", "4"]) == 2
        err = capsys.readouterr().err
        assert "--workers has no effect with the serial executor" in err

    def test_bench_parallel_executor_matches_serial(self, spec_file, capsys):
        """--executor/--workers change the wall clock, never the numbers."""
        assert main(["bench", "--spec", spec_file]) == 0
        serial = capsys.readouterr().out
        assert main(["bench", "--spec", spec_file, "--executor", "thread",
                     "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        strip = lambda text: "\n".join(l for l in text.splitlines() if "completed in" not in l)
        assert strip(serial) == strip(parallel)


class TestCaptureCacheFlag:
    def test_capture_cache_flag_parses(self):
        args = build_parser().parse_args(
            ["bench", "--strategy", "fedavg", "--capture-cache", "cc"])
        assert args.capture_cache == "cc"

    def test_bench_with_capture_cache_populates_and_reuses(self, spec_file, tmp_path, capsys):
        cache_dir = tmp_path / "capture-cache"
        assert main(["bench", "--spec", spec_file, "--capture-cache", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        entries = list(cache_dir.glob("*.npz"))
        assert len(entries) == 6  # 3 devices x train/test
        assert main(["bench", "--spec", spec_file, "--capture-cache", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        strip = lambda text: "\n".join(l for l in text.splitlines() if "completed in" not in l)
        assert strip(first) == strip(second)
        assert list(cache_dir.glob("*.npz")) == entries

    def test_capture_cache_rejected_for_unsupported_dataset(self, spec_file, capsys):
        assert main(["bench", "--spec", spec_file, "--dataset", "synthetic_cifar",
                     "--capture-cache", "cc"]) == 2
        err = capsys.readouterr().err
        assert "--capture-cache is not supported" in err

    def test_capture_cache_is_result_neutral_in_store(self, spec_file, tmp_path):
        """A run stored without a cache is found again when one is added."""
        import json as json_module

        from repro.runtime import RunSpec
        from repro.store.run_store import spec_hash

        spec = RunSpec.from_dict(json_module.loads(open(spec_file).read()))
        cached = spec.with_overrides(
            dataset_kwargs={**spec.dataset_kwargs, "capture_cache": str(tmp_path)})
        assert spec_hash(cached) == spec_hash(spec)


class TestVersion:
    def test_version_flag_prints_library_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestStoreFlags:
    def test_store_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--store", "runs", "--checkpoint-every", "5", "--resume"])
        assert args.store == "runs"
        assert args.checkpoint_every == 5
        assert args.resume is True

    def test_bench_with_store_persists_run(self, spec_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["bench", "--spec", spec_file, "--store", str(store),
                     "--checkpoint-every", "1"]) == 0
        out = capsys.readouterr().out
        assert "run store" in out
        [run_dir] = [p for p in store.iterdir() if p.is_dir()]
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "result.json").exists()
        assert (run_dir / "checkpoints" / "final.npz").exists()

    def test_bench_resume_skips_completed_run(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["bench", "--spec", spec_file, "--store", store]) == 0
        first = capsys.readouterr().out
        assert main(["bench", "--spec", spec_file, "--store", store,
                     "--resume"]) == 0
        second = capsys.readouterr().out
        strip = lambda text: "\n".join(l for l in text.splitlines()
                                       if "completed in" not in l)
        assert strip(first) == strip(second)

    def test_negative_checkpoint_every_fails_cleanly(self, spec_file, capsys):
        assert main(["bench", "--spec", spec_file, "--checkpoint-every", "-2"]) == 2
        assert "checkpoint_every" in capsys.readouterr().err

    def test_incompatible_checkpoint_fails_cleanly_on_resume(self, spec_file,
                                                             tmp_path, capsys):
        """A checkpoint from a different format version exits 2 with the
        version message, not a traceback."""
        import json

        import numpy as np

        store = str(tmp_path / "store")
        # Create a partial run: manifest + one checkpoint, no result.
        assert main(["bench", "--spec", spec_file, "--store", store,
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        from repro.store import RunStore

        [entry] = RunStore(store).list_runs()
        entry.result_path.unlink()
        # Rewrite the newest checkpoint under a bogus format version.
        meta = {"format_version": 99, "repro_version": "9.9.9", "meta": {},
                "state": {"__dict__": []}}
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(entry.checkpoint_dir / "final.npz", **{"__checkpoint_meta__": blob})
        assert main(["bench", "--spec", spec_file, "--store", store,
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert "format version 99" in err


class TestRunsCommand:
    def test_runs_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "list", "--store", str(tmp_path / "nothing")]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_runs_list_shows_completed_run(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["bench", "--spec", spec_file, "--store", store,
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "fedavg-device_capture" in out
        assert "completed" in out
        assert "2/2" in out  # rounds completed / total

    def test_runs_show_prints_manifest_and_fingerprint(self, spec_file, tmp_path,
                                                       capsys):
        store = str(tmp_path / "store")
        assert main(["bench", "--spec", spec_file, "--store", store,
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        from repro.store import RunStore

        [entry] = RunStore(store).list_runs()
        assert main(["runs", "show", entry.run_id, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "spec_hash" in out
        assert "fingerprint:" in out
        assert "final.npz" in out

    def test_runs_show_unknown_id_fails_cleanly(self, tmp_path, capsys):
        assert main(["runs", "show", "ghost", "--store",
                     str(tmp_path / "store")]) == 2
        assert "no run 'ghost'" in capsys.readouterr().err


class TestSweep:
    def test_sweep_over_strategies_and_seeds(self, spec_file, capsys):
        assert main(["sweep", "--spec", spec_file, "--strategies", "fedavg",
                     "heteroswitch", "--seeds", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        # One row per (strategy, seed) plus aggregate mean/std scalars.
        assert out.count("| fedavg |") == 2
        assert out.count("| heteroswitch |") == 2
        assert "fedavg_average_std" in out

    def test_sweep_writes_report(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["sweep", "--spec", spec_file, "--output", str(out_dir)]) == 0
        assert (out_dir / "report.md").exists()
        assert (out_dir / "sweep.csv").exists()
