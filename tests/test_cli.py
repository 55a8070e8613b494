import json
import os
import subprocess
import sys

import pytest

from isolab import graphs as G
from isolab import lab
from isolab.cli import main


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


C5 = G.write_graph6(G.cycle_graph(5))  # "Dhc"
C6 = G.write_graph6(G.cycle_graph(6))


class TestQueries:
    def test_iso(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["iso", "-"], C5 + "\n", monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data == {"graph6": C5, "n": 5, "iota": 2, "witness": [0, 1]}

    def test_dom(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["dom", "-"], C5 + "\n", monkeypatch)
        data = json.loads(out)
        assert data["gamma"] == 2 and data["witness"] == [0, 2]

    def test_partition3_valid(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["partition3", "-"], C6 + "\n", monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == []
        assert sorted(v for cls in data["classes"] for v in cls) == list(range(6))

    def test_partition3_c5_domain_error(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["partition3", "-"], C5 + "\n", monkeypatch)
        assert code == 1
        assert json.loads(out) == {"graph6": C5, "error": "no_valid_partition"}

    def test_partition3_trace_replays(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["partition3", "--trace", "-"], C6 + "\n", monkeypatch
        )
        data = json.loads(out)
        assert data["trace"][0]["kind"] == "base-cycle"
        colors = {}
        for step in data["trace"]:
            colors.update({int(v): c for v, c in step["colors"].items()})
        assert len(colors) == 6

    def test_partition3_engine_gap(self, capsys, monkeypatch):
        # A reduction dead-end above the exhaustive fallback's order guard
        # is the engine's gap, not a domain error in the input.
        from isolab import partition

        monkeypatch.setattr(partition, "_solve", partition._exhaust)
        p21 = G.write_graph6(G.path_graph(21))
        code, out, _ = run_cli(capsys, ["partition3", "-"], p21 + "\n", monkeypatch)
        assert code == 1
        assert json.loads(out) == {"graph6": p21, "error": "engine_gap"}

    def test_bad_graph6_reports_offset(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["iso", "-"], "A_x\n", monkeypatch)
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "graph6" and "offset" in data["detail"]

    def test_multiple_lines_keep_order(self, capsys, monkeypatch):
        text = C5 + "\n" + C6 + "\n"
        code, out, _ = run_cli(capsys, ["iso", "-"], text, monkeypatch)
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["graph6"] == C5
        assert json.loads(lines[1])["graph6"] == C6

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(C6 + "\n")
        code, out, _ = run_cli(capsys, ["star", str(path)])
        data = json.loads(out)
        assert data["center"] in range(6) and len(data["leaves"]) >= 2

    def test_recognize(self, capsys, monkeypatch):
        p3 = G.write_graph6(G.path_graph(3))
        code, out, _ = run_cli(capsys, ["recognize-g", "-"], p3 + "\n", monkeypatch)
        data = json.loads(out)
        assert data["member"] is True and data["spec"]["pendants"]


class TestHostileInput:
    @pytest.mark.parametrize(
        "command", ["iso", "dom", "partition3", "recognize-g", "star"]
    )
    def test_missing_input_path_exits_2(self, capsys, tmp_path, command):
        missing = tmp_path / "missing.g6"
        code, out, err = run_cli(capsys, [command, str(missing)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(missing) in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_spec_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "spec.json"
        if kind == "directory":
            path.mkdir()
        code, out, err = run_cli(capsys, ["gen-g", "--spec", str(path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("argv", [
        ["extremal", "--order", "3"],
        ["derive-e", "--order", "6"],
    ], ids=["extremal", "derive-e"])
    def test_unwritable_out_exits_2_before_computing(self, capsys, tmp_path, monkeypatch, argv):
        def boom(*args, **kwargs):
            raise AssertionError("computed before opening --out")

        monkeypatch.setattr(lab, "extremal_graphs", boom)
        monkeypatch.setattr(lab, "derive_exceptional", boom)
        path = tmp_path / "missing" / "out"
        code, out, err = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 2 and out == ""
        assert err == f"isolab: error: cannot write {path}: No such file or directory\n"

    def test_cache_dir_naming_a_file_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cache"
        path.write_text("")
        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(path))
        monkeypatch.delitem(lab._CONNECTED, 5, raising=False)
        code, out, err = run_cli(capsys, ["enum", "--order", "5", "--connected"])
        assert code == 2 and out == ""
        assert err == f"isolab: error: cannot use cache dir {path}: File exists\n"

    def test_unreadable_cache_file_exits_2(self, capsys, tmp_path, monkeypatch):
        entry = tmp_path / "connected_n5.g6"
        entry.mkdir()
        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.delitem(lab._CONNECTED, 5, raising=False)
        code, out, err = run_cli(capsys, ["enum", "--order", "5", "--connected"])
        assert code == 2 and out == ""
        assert err == f"isolab: error: cannot read cache file {entry}: Is a directory\n"

    @pytest.mark.parametrize("text", [
        '{"base": "@", "pendants": [',
        "[1]",
        '{"base": "@", "pendants": [{"kind": "K2", "attach": 1}]}',
    ], ids=["malformed", "not-an-object", "attach-not-a-list"])
    def test_bad_spec_is_invalid_spec(self, capsys, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, ["gen-g", "--spec", str(path)])
        assert code == 1
        data = json.loads(out)
        assert set(data) == {"error", "detail"}
        assert data["error"] == "invalid_spec"


    def test_non_ascii_input_is_graph6_error(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["iso", "-"], "\u00e9\nD\u00e9c\n", monkeypatch)
        assert code == 1
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["error"] for r in rows] == ["graph6", "graph6"]
        assert "byte offset 0" in rows[0]["detail"]
        assert "byte offset 1" in rows[1]["detail"]

    def test_undecodable_file_is_graph6_error(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(b"\xff\xfe\n" + C5.encode() + b"\n")
        code, out, _ = run_cli(capsys, ["iso", str(path)])
        assert code == 1
        bad, good = (json.loads(line) for line in out.strip().split("\n"))
        assert bad["error"] == "graph6" and "byte offset 0" in bad["detail"]
        assert good["iota"] == 2


class TestGenerators:
    def test_gen_g(self, capsys, tmp_path):
        spec = {"base": "@", "pendants": [{"kind": "C5", "attach": [0, 2]}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, ["gen-g", "--spec", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 6 and data["hooks"] == [0]
        assert len(data["hook_isolating_set"]) == 2

    def test_gen_g_invalid(self, capsys, tmp_path):
        spec = {"base": "@", "pendants": [{"kind": "C5", "attach": [0, 1, 3]}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, ["gen-g", "--spec", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == "invalid_spec"

    def test_rand_g_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, ["rand-g", "--order", "9", "--seed", "5", "--count", "3"])
        code, out2, _ = run_cli(capsys, ["rand-g", "--order", "9", "--seed", "5", "--count", "3"])
        assert out1 == out2
        for line in out1.strip().split("\n"):
            data = json.loads(line)
            assert G.parse_graph6(data["graph6"]).order == 9

    def test_rand_g_infeasible(self, capsys):
        code, out, _ = run_cli(capsys, ["rand-g", "--order", "7", "--seed", "1"])
        assert code == 1

    @pytest.mark.parametrize("order", [66, 300])
    def test_rand_g_above_order_64_is_infeasible(self, capsys, order):
        code, out, _ = run_cli(capsys, ["rand-g", "--order", str(order), "--seed", "1"])
        assert code == 1
        assert json.loads(out) == {"error": "infeasible_order", "order": order}


class TestCatalogs:
    def test_enum_connected(self, capsys):
        code, out, _ = run_cli(capsys, ["enum", "--order", "5", "--connected"])
        lines = out.strip().split("\n")
        assert len(lines) == 21
        assert lines == sorted(lines)
        for line in lines:
            G.parse_graph6(line)

    def test_enum_all(self, capsys):
        code, out, _ = run_cli(capsys, ["enum", "--order", "4"])
        assert len(out.strip().split("\n")) == 11

    @pytest.mark.parametrize("asked, cores, want", [
        ("100000", 4, 4), ("0", 4, 1), ("-3", 4, 1), ("3", 4, 3), ("5", None, 1),
    ])
    def test_threads_clamped(self, capsys, monkeypatch, asked, cores, want):
        seen = []

        def fake_enumerate(order, threads=1):
            seen.append(threads)
            return ["@"]

        monkeypatch.setattr(lab, "enumerate_connected", fake_enumerate)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run_cli(
            capsys, ["enum", "--order", "1", "--connected", "--threads", asked]
        )
        assert code == 0 and out == "@\n"
        assert seen == [want]

    def test_enum_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "--order", "40"])
        assert exc.value.code == 2

    def test_derive_e_order6(self, capsys, tmp_path):
        out_file = tmp_path / "e6.g6"
        code, out, _ = run_cli(capsys, ["derive-e", "--order", "6", "--out", str(out_file)])
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert out_file.read_text().strip().split("\n") == lines

    def test_extremal_order3(self, capsys, tmp_path):
        out_file = tmp_path / "report_n3.json"
        code, out, _ = run_cli(capsys, ["extremal", "--order", "3", "--out", str(out_file)])
        summary = json.loads(out)
        assert summary == {"order": 3, "total": 2, "extremal": 2, "g": 2, "e": 0}
        full = json.loads(out_file.read_text())
        assert len(full["entries"]) == 2

    def test_verify_order3(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--order", "3"])
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestProcessLevel:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isolab.cli", "iso", "-"],
            input=C5 + "\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["iota"] == 2

    def test_undecodable_stdin_is_graph6_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isolab.cli", "iso", "-"],
            input=b"\xff\xfe\n" + C5.encode() + b"\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 1 and proc.stderr == b""
        bad, good = (json.loads(line) for line in proc.stdout.decode().splitlines())
        assert bad["error"] == "graph6" and good["iota"] == 2

    def test_unknown_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isolab.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isolab.cli", "iso", "--bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_threads_do_not_change_bytes(self):
        outs = []
        for k in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "isolab.cli", "enum", "--order", "6",
                 "--connected", "--threads", k],
                capture_output=True,
                text=True,
                env=None,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
