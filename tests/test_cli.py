"""Command-line interface."""

import json

import pytest

from repro.cli import main


def test_list_counters(capsys):
    assert main(["counters", "list"]) == 0
    out = capsys.readouterr().out
    assert "/threads/time/average" in out
    assert "/papi/OFFCORE_REQUESTS:ALL_DATA_RD" in out


def test_list_counters_pattern(capsys):
    assert main(["counters", "list", "--pattern", "/runtime/*"]) == 0
    out = capsys.readouterr().out
    assert "/runtime/uptime" in out
    assert "/threads" not in out


def test_list_counters_verbose(capsys):
    assert main(["counters", "list", "--pattern", "/threads/idle-rate", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "worker-thread#0" in out
    assert "idle rate" in out.lower()


def test_run_hpx(capsys):
    code = main(["run", "fib", "--cores", "2", "--param", "n=10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out
    assert "/threads{locality#0/total}/time/average" in out


def test_run_std(capsys):
    code = main(["run", "fib", "--runtime", "std", "--cores", "2", "--param", "n=10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_abort_reports(capsys):
    code = main(["run", "fib", "--runtime", "std", "--cores", "4", "--param", "n=19"])
    out = capsys.readouterr().out
    assert code == 1
    assert "ABORT" in out


def test_run_explicit_counter(capsys):
    main(
        [
            "run",
            "fib",
            "--param",
            "n=9",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
        ]
    )
    out = capsys.readouterr().out
    assert "/threads{locality#0/total}/count/cumulative" in out
    assert "idle-rate" not in out


def test_run_no_counters(capsys):
    main(["run", "fib", "--param", "n=9", "--no-counters"])
    out = capsys.readouterr().out
    assert "counter,count,time,value" not in out


def test_bad_param_format():
    with pytest.raises(SystemExit):
        main(["run", "fib", "--param", "n:10"])


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["run", "linpack"])


def test_figure_unknown():
    with pytest.raises(SystemExit, match="unknown figure"):
        main(["figure", "fig99"])


def test_figure_small(capsys):
    assert main(["figure", "fig3", "--samples", "1", "--cores-list", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "strassen" in out


def test_table5_single(capsys):
    assert (main(["table5", "--benchmarks", "fib", "--samples", "1", "--cores-list", "1,2"]) == 0)
    out = capsys.readouterr().out
    assert "fib" in out and "very fine" in out


def test_run_with_preset(capsys):
    code = main(["run", "sort", "--preset", "small", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_preset_with_param_override(capsys):
    code = main(["run", "fib", "--preset", "small", "--param", "n=9", "--no-counters"])
    assert code == 0


def test_run_with_interval_query(capsys):
    code = main(
        [
            "run",
            "fib",
            "--param",
            "n=13",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
            "--print-counter-interval",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # Interval samples appear before the final summary line.
    assert out.count("/threads{locality#0/total}/count/cumulative") > 2


def test_run_with_interval_destination(tmp_path, capsys):
    dest = tmp_path / "counters.csv"
    code = main(
        [
            "run",
            "fib",
            "--param",
            "n=13",
            "--print-counter",
            "/threads{locality#0/total}/count/cumulative",
            "--print-counter-interval",
            "0.5",
            "--print-counter-destination",
            str(dest),
        ]
    )
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    assert len(lines) >= 2
    assert all(line.startswith("/threads") for line in lines)


def test_campaign_and_compare_roundtrip(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    argv = [
        "campaign",
        "--benchmarks",
        "fib",
        "--runtimes",
        "hpx",
        "--cores-list",
        "1,2",
        "--samples",
        "2",
        "--preset",
        "small",
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(artifact),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out and "executed 4" in out
    assert artifact.exists()

    # Same campaign again: everything is served from the cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hits 4 (100%)" in out and "executed 0" in out

    assert main(["compare", str(artifact), str(artifact), "--threshold", "0.10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_compare_exits_nonzero_on_regression(tmp_path, capsys):
    import json

    artifact = tmp_path / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "fib",
                "--runtimes",
                "hpx",
                "--cores-list",
                "1",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--out",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(artifact.read_text())
    for cell in data["cells"]:
        cell["result"]["exec_time_ns"] = round(cell["result"]["exec_time_ns"] * 1.5)
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(data))
    assert main(["compare", str(artifact), str(slower), "--threshold", "0.10"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "regression" in out


def test_figure_from_artifact(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "strassen",
                "--cores-list",
                "1,2",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--out",
                str(artifact),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["figure", "fig3", "--artifact", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "strassen" in out


def test_campaign_verbose_progress(tmp_path, capsys):
    assert (
        main(
            [
                "campaign",
                "--benchmarks",
                "fib",
                "--runtimes",
                "hpx",
                "--cores-list",
                "1",
                "--samples",
                "1",
                "--preset",
                "small",
                "--no-cache",
                "--verbose",
                "--out",
                str(tmp_path / "c.json"),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "[1/1] fib/hpx cores=1 sample=0" in err


def test_platform_list(capsys):
    assert main(["platform", "list"]) == 0
    out = capsys.readouterr().out
    assert "* ivybridge-2x10" in out  # default marked
    assert "epyc-2x64" in out and "desktop-1x8" in out


def test_platform_show(capsys):
    assert main(["platform", "show", "hybrid-4p8e"]) == 0
    out = capsys.readouterr().out
    assert "2 socket(s), 12 cores" in out
    assert "socket#0/core#0" in out  # hwloc-style tree
    assert "socket#1/core#7" in out


def test_platform_show_file(capsys, tmp_path):
    from repro.platform import get_platform, save_platform_file

    path = save_platform_file(get_platform("desktop-1x8"), tmp_path / "node.toml")
    assert main(["platform", "show", str(path)]) == 0
    assert "desktop-1x8" in capsys.readouterr().out


def test_platform_show_unknown(capsys):
    assert main(["platform", "show", "vax-11"]) == 2
    assert "unknown platform" in capsys.readouterr().err


def test_run_on_non_default_platform(capsys):
    code = main(["run", "fib", "--cores", "2", "--param", "n=10", "--platform", "epyc-2x64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_platform_changes_the_simulation(capsys):
    def exec_ms(argv):
        assert main(argv) == 0
        line = capsys.readouterr().out.splitlines()[0]
        return float(line.split(": ")[1].split(" ms")[0])

    argv = ["run", "fib", "--cores", "4", "--param", "n=16", "--no-counters"]
    assert exec_ms(argv) != exec_ms(argv + ["--platform", "desktop-1x8"])


def test_counters_list(capsys):
    assert main(["counters", "list"]) == 0
    out = capsys.readouterr().out
    assert "/threads/time/average" in out


def test_counters_list_pattern(capsys):
    assert main(["counters", "list", "--pattern", "/runtime/*"]) == 0
    out = capsys.readouterr().out
    assert "/runtime/uptime" in out
    assert "/threads" not in out


def test_counters_query_default_set_csv(capsys):
    assert main(["counters", "query", "--param", "n=10", "--cores", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "name,instance,timestamp_ns,value,unit,run_id"
    assert any("/threads{locality#0/total}/time/average," in line for line in lines[1:])
    assert "fib [hpx, 2 cores]" in captured.err


def test_counters_query_expands_wildcards(capsys):
    assert (
        main(
            [
                "counters",
                "query",
                "/threads{locality#0/worker-thread#*}/count/cumulative",
                "--param",
                "n=10",
                "--cores",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "worker-thread#0" in out and "worker-thread#1" in out


def test_counters_query_jsonl_to_file(tmp_path, capsys):
    from repro.telemetry.sinks import parse_jsonl_stream

    dest = tmp_path / "stream.jsonl"
    assert (
        main(
            [
                "counters",
                "query",
                "--param",
                "n=10",
                "--cores",
                "2",
                "--format",
                "jsonl",
                "--out",
                str(dest),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == ""  # the stream went to the file
    frame = parse_jsonl_stream(dest.read_text())
    assert "/threads{locality#0/total}/idle-rate" in frame.totals()


def test_counters_query_interval_streams_samples(capsys):
    assert (
        main(
            [
                "counters",
                "query",
                "/threads{locality#0/total}/count/cumulative",
                "--param",
                "n=13",
                "--cores",
                "1",
                "--interval",
                "0.5",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # Periodic rows plus the final evaluation, all on one counter.
    assert out.count("/threads{locality#0/total}/count/cumulative,") > 2


def test_counters_query_abort_exits_nonzero(capsys):
    code = main(
        ["counters", "query", "--runtime", "std", "--cores", "4", "--param", "n=19"]
    )
    assert code == 1
    assert "ABORT" in capsys.readouterr().err


def test_counters_query_bad_spec_errors(capsys):
    code = main(["counters", "query", "/no-such/counter", "--param", "n=8"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_workloads_list(capsys):
    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 16
    assert "taskbench" in out and "fib" in out and "fmm" in out
    assert "presets=default,large,small" in out


def test_workloads_show(capsys):
    assert main(["workloads", "show", "taskbench"]) == 0
    out = capsys.readouterr().out
    assert "taskbench (taskbench)" in out
    assert "shape = 'stencil_1d'" in out
    assert "preset small: width=8, steps=4" in out


def test_workloads_show_unknown(capsys):
    assert main(["workloads", "show", "linpack"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_run_accepts_workload_spec(capsys):
    code = main(["run", "taskbench:shape=trivial,width=4,steps=2", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_workload_option(capsys):
    code = main(["run", "--workload", "fib:n=9", "--no-counters"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified=True" in out


def test_run_rejects_two_workload_names():
    with pytest.raises(SystemExit, match="exactly one workload"):
        main(["run", "fib", "--workload", "sort"])


def test_run_param_overridden_by_embedded_spec_param(capsys):
    # Embedded spec parameters are more specific than --param.
    code = main(["run", "fib:n=9", "--param", "n=25", "--no-counters"])
    assert code == 0


def test_taskbench_cli_writes_deterministic_json(tmp_path, capsys):
    argv = [
        "taskbench",
        "--shape",
        "trivial",
        "--width",
        "8",
        "--steps",
        "2",
        "--runtime",
        "hpx",
        "--cores",
        "4",
        "--platform",
        "desktop-1x8",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, "--out", str(first)]) == 0
    out = capsys.readouterr().out
    assert "METG(0.5) = " in out
    assert "[hpx, 4 cores, desktop-1x8]" in out
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()
    payload = json.loads(first.read_text())
    assert [r["runtime"] for r in payload["results"]] == ["hpx"]
    assert payload["results"][0]["metg_ns"] is not None


def test_taskbench_cli_samples_out(tmp_path, capsys):
    samples = tmp_path / "samples.jsonl"
    code = main(
        [
            "taskbench",
            "--shape",
            "trivial",
            "--width",
            "8",
            "--steps",
            "2",
            "--runtime",
            "hpx",
            "--cores",
            "4",
            "--platform",
            "desktop-1x8",
            "--samples-out",
            str(samples),
            "--verbose",
        ]
    )
    assert code == 0
    assert "grain=" in capsys.readouterr().err  # --verbose probe stream
    rows = [json.loads(line) for line in samples.read_text().splitlines()]
    names = {row["name"] for row in rows}
    assert "/taskbench{locality#0/trivial}/metg@0.5" in names
    assert any("/efficiency@" in name for name in names)
