import csv
import json
import math

import numpy as np
import pytest

import dynamite as dm
from dynamite.cli import BENCH_COLUMNS, EXIT_CONFIG, EXIT_GUARD, main


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestAnalyzeChain:
    def test_cycle_profile_payload(self, tmp_path):
        out = tmp_path / "analysis.json"
        code = run_cli([
            "analyze-chain", "--chain", "cycle", "--n", "8",
            "--fn", "cycle-f", "--i", "1", "--T", "1", "--T", "64",
            "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert sorted(payload) == ["chain", "function", "profiles", "sandwich", "spectral"]
        assert payload["spectral"]["stationary_variance"] == pytest.approx(0.25)
        assert payload["spectral"]["second_eigenvalue"] == pytest.approx(math.cos(math.pi / 8) ** 2)
        assert payload["spectral"]["relaxation_time"] > 1
        horizons = {p["horizon"]: p["trace_variance"] for p in payload["profiles"]}
        assert horizons[1] == pytest.approx(payload["spectral"]["stationary_variance"])
        assert 64 in horizons
        assert all(s["passed"] for s in payload["sandwich"])

    def test_malformed_flags_exit_two_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["analyze-chain", "--chain", "cycle", "--n", "8"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestEstimate:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "estimate", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.2",
            "--replicates", "1", "--seed", "31",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_state_coverage_and_aggregate(self, tmp_path):
        out = tmp_path / "est.json"
        code = run_cli([
            "estimate", "--chain", "two-state", "--fn", "indicator", "--states", "1",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1",
            "--replicates", "200", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["aggregate"]["true_mean"] == pytest.approx(0.5)
        assert payload["aggregate"]["coverage"] >= 0.9
        assert len(payload["reports"]) == 200

    def test_static_hoeffding_steps_equal_closed_form(self, tmp_path):
        out = tmp_path / "static.json"
        code = run_cli([
            "estimate", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
            "--method", "static-hoeffding", "--epsilon", "0.05", "--delta", "0.1",
            "--replicates", "5", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        lam = math.cos(math.pi / 8) ** 2
        expected = math.ceil((1 + lam) / (1 - lam) * math.log(2 / 0.1) / (2 * 0.05 ** 2))
        for report in payload["reports"]:
            assert report["total_base_steps"] == expected

    def test_lambda_oracle_requires_matrix(self):
        # both built-in chains carry matrices, so a bad explicit value is the error path
        code = run_cli([
            "estimate", "--chain", "two-state", "--fn", "indicator",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1",
            "--lambda", "1.5",
        ])
        assert code == EXIT_CONFIG

    def test_zero_replicates_is_config_error(self, capsys):
        code = run_cli([
            "estimate", "--chain", "two-state", "--fn", "indicator",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1",
            "--replicates", "0",
        ])
        assert code == EXIT_CONFIG
        assert "--replicates" in capsys.readouterr().err


class TestCountColorings:
    @pytest.fixture()
    def c4_file(self, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))).to_json()))
        return path

    def test_exact_cross_check(self, c4_file, tmp_path):
        out = tmp_path / "count.json"
        code = run_cli([
            "count-colorings", "--graph", str(c4_file), "--k", "3",
            "--epsilon", "0.25", "--delta", "0.25", "--seed", "7",
            "--exact", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["exact"] == 18
        assert payload["relative_error"] <= 0.3
        assert payload["lambda_defaulted"] is True

    def test_edgeless_graph_is_exact_and_free(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 5, "edges": []}))
        out = tmp_path / "count.json"
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "2", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["estimate"] == "32"
        assert payload["total_steps"] == 0

    def test_color_floor_guard_exit_three(self, tmp_path, capsys):
        path = tmp_path / "tri2.json"
        two_triangles = dm.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        path.write_text(json.dumps(two_triangles.to_json()))
        # k = d_max + 1 = 3: the intact-triangle phases freeze, the guard refuses
        code = run_cli(["count-colorings", "--graph", str(path), "--k", "3"])
        assert code == EXIT_GUARD
        assert "ergodicity floor" in capsys.readouterr().err

    def test_missing_graph_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run_cli(["count-colorings", "--graph", str(missing), "--k", "3"]) == EXIT_CONFIG
        assert "absent.json" in capsys.readouterr().err

    def test_graph_file_without_edges_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "noedges.json"
        path.write_text(json.dumps({"n": 4}))
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "noedges.json" in err and "edges" in err

    def test_oversize_exact_refuses_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "path12.json"
        path.write_text(json.dumps(dm.Graph(12, tuple((i, i + 1) for i in range(11))).to_json()))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the brute-force guard")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "5", "--exact"]) == EXIT_GUARD
        assert "brute force guarded" in capsys.readouterr().err

    def test_size_overflow_guard_exit_three(self, tmp_path, capsys):
        path = tmp_path / "path460.json"
        path.write_text(json.dumps(dm.Graph(460, tuple((i, i + 1) for i in range(459))).to_json()))
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "5"]) == EXIT_GUARD
        assert "n ln k" in capsys.readouterr().err


class TestGenPlanted:
    def test_writes_graph_and_sidecar(self, tmp_path):
        out = tmp_path / "planted.json"
        code = run_cli([
            "gen-planted", "--n", "8", "--r", "2", "--p", "0.9", "--q", "0.2",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        graph = dm.Graph.from_json(read_json(out))
        sidecar = read_json(tmp_path / "planted.communities.json")
        assert graph.n == 8
        assert sidecar["communities"] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert sidecar["params"]["seed"] == 11
        assert len(sidecar["cut_sizes"]) == 2

    def test_deterministic_per_seed(self, tmp_path):
        args = ["gen-planted", "--n", "8", "--r", "2", "--p", "0.5", "--q", "0.2", "--seed", "4"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYNAMITE_OUT_DIR", str(tmp_path))
        run_cli(["gen-planted", "--n", "4", "--r", "2", "--p", "1.0", "--q", "0.0",
                 "--seed", "0", "--out", "rel.json"])
        assert (tmp_path / "rel.json").exists()
        assert (tmp_path / "rel.communities.json").exists()


class TestBenchCompare:
    def test_empty_problem_list_gives_header_only(self, capsys):
        assert run_cli(["bench-compare", "--problems", "", "--batches", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [",".join(BENCH_COLUMNS)]

    def test_unknown_problem_is_config_error(self):
        assert run_cli(["bench-compare", "--problems", "nope"]) == EXIT_CONFIG

    def test_cycle_rows_schema_and_determinism(self, tmp_path):
        args = ["bench-compare", "--problems", "cycle16-f1", "--batches", "2", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0

        def stripped(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == BENCH_COLUMNS
            return [row[:-1] for row in rows]  # wall clock is not reproducible

        assert stripped(a) == stripped(b)
        with open(a) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"dynamite", "mcmc-pro", "static-hoeffding", "static-bernstein"}
        assert all(int(r["steps"]) > 0 for r in rows)

    def test_counting_problem_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli([
            "bench-compare", "--problems", "planted4-count", "--batches", "1",
            "--seed", "2", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"dynamite", "static-hoeffding"}
        assert all(float(r["mean_abs_error"]) >= 0 for r in rows)
