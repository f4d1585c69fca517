import csv
import json
import math
import time

import numpy as np
import pytest

import dynamite as dm
from dynamite.cli import BENCH_COLUMNS, EXIT_CONFIG, EXIT_GUARD, main
from dynamite.spectral import HORIZON_CAP, MATRIX_CAP, WORK_CAP


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

    def test_nested_record_layouts(self, tmp_path):
        out = tmp_path / "analysis.json"
        assert run_cli([
            "analyze-chain", "--chain", "cycle", "--n", "8",
            "--fn", "cycle-f", "--i", "1", "--T", "1", "--T", "5",
            "--out", str(out),
        ]) == 0
        payload = read_json(out)
        assert sorted(payload["spectral"]) == [
            "mean", "pi_min", "relaxation_time", "second_eigenvalue", "stationary", "stationary_variance",
        ]
        stationary = payload["spectral"]["stationary"]
        assert isinstance(stationary, list) and len(stationary) == 8
        assert all(type(p) is float for p in stationary)
        assert [p["horizon"] for p in payload["profiles"]] == [1, 5]
        for profile in payload["profiles"]:
            assert sorted(profile) == ["autocovariances", "horizon", "trace_variance"]
            covs = profile["autocovariances"]
            assert isinstance(covs, list) and len(covs) == profile["horizon"] - 1
            assert all(type(c) is float for c in covs)
        assert len(payload["sandwich"]) == 2
        for verdict in payload["sandwich"]:
            assert sorted(verdict) == ["horizon", "lower", "passed", "trace_variance", "upper"]

    def test_each_profile_is_computed_once(self, tmp_path, monkeypatch):
        import dynamite.cli as cli_mod
        import dynamite.spectral as spectral_mod

        calls, real = [], spectral_mod.exact_trace_variance

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral_mod, "exact_trace_variance", counting)
        monkeypatch.setattr(cli_mod, "exact_trace_variance", counting)
        out = tmp_path / "analysis.json"
        assert run_cli(["analyze-chain", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
                        "--T", "4", "--T", "8", "--out", str(out)]) == 0
        assert calls == [4, 8]
        kernel, f = dm.make_cycle(8), dm.make_cycle_function(8, 1)
        summary = dm.summarize(kernel, f)
        profiles = [real(kernel, f, t, summary=summary) for t in (4, 8)]
        assert read_json(out) == {
            "chain": kernel.name,
            "function": f.name,
            "spectral": summary.to_json(),
            "profiles": [p.to_json() for p in profiles],
            "sandwich": [dm.check_sandwich(kernel, f, p, summary=summary).to_json() for p in profiles],
        }

    @pytest.mark.parametrize("horizon", (HORIZON_CAP + 1, 300_000_000, 10_000_000_000))
    def test_oversize_horizon_exits_three_before_allocating(self, horizon, capsys):
        started = time.perf_counter()
        code = run_cli(["analyze-chain", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
                        "--T", str(horizon)])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert f"horizon T capped at {HORIZON_CAP:,}" in err and "Traceback" not in err

    def test_oversize_work_exits_three_before_any_product(self, capsys):
        started = time.perf_counter()
        code = run_cli(["analyze-chain", "--chain", "cycle", "--n", "512", "--fn", "cycle-f", "--i", "1",
                        "--T", "100000"])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert f"capped at {WORK_CAP:,}" in err and "Traceback" not in err

    @pytest.mark.parametrize("n, horizon, exit_code", ((2048, 100_000, EXIT_GUARD), (8, 0, EXIT_CONFIG)))
    def test_horizons_are_refused_before_the_eigensolve(self, n, horizon, exit_code, monkeypatch, capsys):
        import dynamite.cli as cli_mod

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("summarize ran before the horizon checks")

        monkeypatch.setattr(cli_mod, "summarize", no_eigensolve)
        started = time.perf_counter()
        code = run_cli(["analyze-chain", "--chain", "cycle", "--n", str(n), "--fn", "cycle-f", "--i", "1",
                        "--T", "1", "--T", str(horizon)])
        assert code == exit_code
        assert time.perf_counter() - started < 1.0
        assert "Traceback" not in capsys.readouterr().err

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

    def test_lambda_outside_unit_interval_is_config_error(self):
        code = run_cli([
            "estimate", "--chain", "two-state", "--fn", "indicator",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1",
            "--lambda", "1.5",
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bound", ("oracle", "0.9"))
    def test_one_spectral_summary_per_run(self, bound, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dm.summarize(*args, **kwargs)

        monkeypatch.setattr("dynamite.cli.summarize", counted)
        code = run_cli([
            "estimate", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.2", "--lambda", bound,
            "--replicates", "2", "--out", str(tmp_path / "out.json"),
        ])
        assert code == 0
        assert len(calls) == 1
        if bound == "oracle":
            lam = read_json(tmp_path / "out.json")["config"]["lambda_bound"]
            assert lam == dm.summarize(dm.make_cycle(8), dm.make_cycle_function(8, 1)).second_eigenvalue

    def test_zero_replicates_is_config_error(self, capsys):
        code = run_cli([
            "estimate", "--chain", "two-state", "--fn", "indicator",
            "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1",
            "--replicates", "0",
        ])
        assert code == EXIT_CONFIG
        assert "--replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ("mcmc-pro", "dynamite", "static-hoeffding", "static-bernstein"))
    def test_start_without_warm_start_exits_two_before_summarising(self, method, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("summarised or sampled before --start was checked")

        monkeypatch.setattr("dynamite.cli.summarize", no_work)
        monkeypatch.setattr(dm.TransitionKernel, "path", no_work)
        code = run_cli([
            "estimate", "--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1",
            "--method", method, "--epsilon", "0.1", "--delta", "0.2", "--start", "1",
        ])
        assert code == EXIT_CONFIG
        assert "--start" in capsys.readouterr().err

    @pytest.mark.parametrize("states", ("99", "1,,2"))
    @pytest.mark.parametrize("command", (
        ["analyze-chain"],
        ["estimate", "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1"],
    ))
    def test_indicator_states_outside_the_chain_exit_two_before_summarising(self, command, states, capsys,
                                                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("summarised before --states was checked")

        monkeypatch.setattr("dynamite.cli.summarize", no_work)
        code = run_cli(command + ["--chain", "cycle", "--n", "8", "--fn", "indicator", "--states", states])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--states" in err and "0..7" in err

    @pytest.mark.parametrize("n", ("4097", "50000"))
    @pytest.mark.parametrize("command", (
        ["analyze-chain"],
        ["estimate", "--method", "dynamite", "--epsilon", "0.1", "--delta", "0.1"],
    ))
    def test_oversize_cycle_exits_three_before_the_matrix(self, command, n, capsys, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("built the cycle before the size guard")

        monkeypatch.setattr("dynamite.cli.make_cycle", no_matrix)
        started = time.perf_counter()
        code = run_cli(command + ["--chain", "cycle", "--n", n, "--fn", "cycle-f", "--i", "1"])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        assert f"capped at {MATRIX_CAP} states" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ("dynamite", "mcmc-pro", "static-hoeffding", "static-bernstein", "warm-start"))
    def test_oversize_run_exits_three_before_sampling(self, method, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the step cap")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        started = time.perf_counter()
        code = run_cli([
            "estimate", "--chain", "cycle", "--n", "16", "--fn", "cycle-f", "--i", "1",
            "--method", method, "--epsilon", "1e-7", "--delta", "0.1",
        ])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["estimate", "--method", "static-hoeffding", "--epsilon", "1e-200"],  # 2 eps^2 underflows to 0
        ["estimate", "--method", "dynamite", "--epsilon", "1e-300"],  # the schedule's sizes overflow
        ["count-colorings", "--k", "5", "--epsilon", "1e-300"],
    ], ids=["static-hoeffding", "dynamite", "count-colorings"])
    def test_a_tiny_epsilon_exits_three_before_sizing(self, command, tmp_path, capsys):
        if command[0] == "estimate":
            command += ["--chain", "cycle", "--n", "8", "--fn", "cycle-f", "--i", "1", "--delta", "0.1"]
        else:
            path = tmp_path / "path3.json"
            path.write_text(json.dumps(dm.Graph(3, ((0, 1), (1, 2))).to_json()))
            command += ["--graph", str(path)]
        assert run_cli(command) == EXIT_GUARD
        assert "plans over R/epsilon base steps, above the cap" in capsys.readouterr().err


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
        assert [p["lambda_source"] for p in payload["phases"]] == ["jerrum", "jerrum", "exact", "exact"]

    def test_edgeless_graph_is_exact_and_free(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 5, "edges": []}))
        out = tmp_path / "count.json"
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "2", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["estimate"] == "32"
        assert payload["total_steps"] == 0

    def test_count_is_finite_while_it_fits_a_float(self, tmp_path):
        # 5^438 ~ 1.41e306: ln is 704.9, past 700 but short of the float limit 709.78
        path = tmp_path / "edgeless438.json"
        path.write_text(json.dumps({"n": 438, "edges": []}))
        out = tmp_path / "count.json"
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "5", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["count"] == pytest.approx(5.0 ** 438)
        assert payload["total_steps"] == 0

    @pytest.mark.parametrize("bound", ["1.5", "abc"])
    def test_bad_lambda_exits_two_on_an_edgeless_graph(self, tmp_path, bound):
        # an edgeless count needs no bound, and a bad one is refused all the same
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 3, "edges": []}))
        args = ["count-colorings", "--graph", str(path), "--k", "3", "--lambda", bound]
        try:
            code = run_cli(args)
        except SystemExit as exc:  # argparse refuses a non-float before the command runs
            code = exc.code
        assert code == EXIT_CONFIG

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

    @pytest.mark.parametrize("payload", [
        '{"n": 3.9, "edges": [[0, 1], [1, 2]]}',
        '{"n": 3, "edges": [[0.9, 1.7], [1, 2]]}',
        '{"n": 3, "edges": [[0, 1], [true, 2]]}',
        '{"n": 3, "edges": [[0, 1], ["1", 2]]}',
    ])
    def test_graph_file_with_non_integer_ids_is_config_error(self, payload, tmp_path, capsys):
        path = tmp_path / "loose.json"
        path.write_text(payload)
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "3"]) == EXIT_CONFIG
        assert "cannot read graph file" in capsys.readouterr().err

    def test_oversize_exact_refuses_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "path12.json"
        path.write_text(json.dumps(dm.Graph(12, tuple((i, i + 1) for i in range(11))).to_json()))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the brute-force guard")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "5", "--exact"]) == EXIT_GUARD
        assert "brute force guarded" in capsys.readouterr().err

    def test_colors_beyond_int16_exit_three_before_sampling(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(dm.Graph(2, ((0, 1),)).to_json()))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the int16 guard")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        assert run_cli(["count-colorings", "--graph", str(path), "--k", "40000"]) == EXIT_GUARD
        assert "int16" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ("dynamite", "static-hoeffding"))
    @pytest.mark.parametrize("graph", ("path500", "star30", "path13"))
    def test_a_count_without_a_proven_bound_exits_three_before_sampling(self, graph, estimator, tmp_path, capsys,
                                                                         monkeypatch):
        # at k=3 Jerrum's bound needs max degree 1; the last phase's support is the whole
        # connected graph, with at least 2^n > MATRIX_CAP colorings: refused with no enumeration
        n = {"path500": 500, "star30": 31, "path13": 13}[graph]
        edges = tuple((0, i) for i in range(1, n)) if graph == "star30" else tuple((i, i + 1) for i in range(n - 1))
        path = tmp_path / f"{graph}.json"
        path.write_text(json.dumps(dm.Graph(n, edges).to_json()))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the proof refusal")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        started = time.perf_counter()
        code = run_cli(["count-colorings", "--graph", str(path), "--k", "3", "--estimator", estimator])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "no proven eigenvalue bound" in err and f"a {n}-vertex support" in err and f"2^{n} states" in err
        assert "--lambda" in err

    @pytest.mark.parametrize("graph, k, estimator, planned", [
        ("path40", 5, "dynamite", "6,035,848,884"),
        ("path40", 5, "static-hoeffding", "2,178,560,631"),
    ])
    def test_a_count_over_the_cap_is_refused_whole_before_phase_one(self, graph, k, estimator, planned, tmp_path,
                                                                     capsys, monkeypatch):
        # every phase plans under the cap alone; their total is over it
        edges = tuple((i, i + 1) for i in range(39))
        path = tmp_path / f"{graph}.json"
        path.write_text(json.dumps(dm.Graph(len(edges) + 1, edges).to_json()))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the count's step cap")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        started = time.perf_counter()
        code = run_cli(["count-colorings", "--graph", str(path), "--k", str(k), "--estimator", estimator])
        assert code == EXIT_GUARD
        assert time.perf_counter() - started < 1.0
        assert f"the count of {len(edges)} phases plans {planned} base steps, above the cap" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", ("4097", "1000000"))
    def test_oversize_exits_three_before_the_draw(self, n, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("reached the dense draw before the size guard")

        monkeypatch.setattr("numpy.random.default_rng", no_draw)
        code = run_cli(["gen-planted", "--n", n, "--r", "1", "--p", "0.5", "--q", "0",
                        "--out", str(tmp_path / "big.json")])
        assert code == EXIT_GUARD
        assert f"capped at {MATRIX_CAP} vertices" in capsys.readouterr().err
        assert not (tmp_path / "big.json").exists()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYNAMITE_OUT_DIR", str(tmp_path))
        run_cli(["gen-planted", "--n", "4", "--r", "2", "--p", "1.0", "--q", "0.0",
                 "--seed", "0", "--out", "rel.json"])
        assert (tmp_path / "rel.json").exists()
        assert (tmp_path / "rel.communities.json").exists()


class TestBenchCompare:
    @pytest.mark.parametrize("problems", ("", ","))
    def test_empty_problem_list_is_config_error(self, problems, capsys):
        assert run_cli(["bench-compare", "--problems", problems, "--batches", "3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--problems" in captured.err and captured.out == ""

    @pytest.mark.parametrize("batches", ("0", "-2"))
    def test_batches_below_one_is_config_error(self, batches, capsys):
        assert run_cli(["bench-compare", "--problems", "cycle16-f1", "--batches", batches]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--batches" in captured.err and captured.out == ""

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

    def test_builds_only_the_requested_problems(self, tmp_path, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("built the planted counting problem unasked")

        summaries = []

        def counted(*args, **kwargs):
            summaries.append(args)
            return dm.summarize(*args, **kwargs)

        monkeypatch.setattr("dynamite.cli.brute_force_count", no_count)
        monkeypatch.setattr("dynamite.cli.summarize", counted)
        assert run_cli([
            "bench-compare", "--problems", "cycle16-f1", "--batches", "1", "--epsilon", "0.1",
            "--out", str(tmp_path / "bench.csv"),
        ]) == 0
        assert len(summaries) == 1

    def test_default_rows_are_pinned(self, tmp_path):
        # recorded once; every column but the wall clock must read the same on every later commit
        out = tmp_path / "bench.csv"
        assert run_cli(["bench-compare", "--batches", "1", "--seed", "0", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [",".join(row[:-1]) for row in csv.reader(fh)]
        assert rows == [
            "method,problem,batch,steps,mean_abs_error,coverage",
            "dynamite,cycle16-f1,0,410760,0.000284838,1.0",
            "mcmc-pro,cycle16-f1,0,394860,0.000101302,1.0",
            "static-hoeffding,cycle16-f1,0,193032,0.000119151,1.0",
            "static-bernstein,cycle16-f1,0,232387,0.000122640,1.0",
            "dynamite,cycle16-f8,0,410760,0.005380271,1.0",
            "mcmc-pro,cycle16-f8,0,394860,0.003573418,1.0",
            "static-hoeffding,cycle16-f8,0,193032,0.002450371,1.0",
            "static-bernstein,cycle16-f8,0,232387,0.005699544,1.0",
            "dynamite,planted4-count,0,537624,0.001686088,1.0",
            "static-hoeffding,planted4-count,0,141204,0.000455885,1.0",
        ]

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


@pytest.mark.parametrize("command", [
    ["estimate", "--chain", "two-state", "--fn", "indicator", "--method", "dynamite",
     "--epsilon", "0.1", "--delta", "0.2"],
    ["count-colorings", "--graph", "{graph}", "--k", "3"],
    ["gen-planted", "--n", "4", "--r", "2", "--p", "0.5", "--q", "0.2"],
    ["bench-compare", "--problems", "cycle16-f1", "--batches", "1", "--epsilon", "0.1"],
])
def test_unwritable_out_exits_two_naming_the_path(command, tmp_path, capsys, monkeypatch):
    # refused before any sampling: a sampler call fails the test instead of exiting 2
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the output path was checked")

    monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
    graph = tmp_path / "path3.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    out = str(tmp_path / "missing" / "x")
    args = [str(graph) if a == "{graph}" else a for a in command]
    assert run_cli(args + ["--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert out in err and "Traceback" not in err
