import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from isolab import graphs as G
from isolab import lab
from isolab.cli import main

from conftest import leafy_and_dense_graphs, random_connected_graph


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
        # A cycle rung that finds no cycle is the engine's gap, not a domain
        # error in the input; its record names the graph, and the next line
        # is still answered.
        from isolab import partition

        monkeypatch.setattr(partition, "find_cycle_len_mod3", lambda g, mask: None)
        k4 = G.write_graph6(G.complete_graph(4))
        code, out, _ = run_cli(capsys, ["partition3", "-"], f"{k4}\n{C6}\n", monkeypatch)
        assert code == 1
        gap, answer = (json.loads(line) for line in out.splitlines())
        assert gap.keys() == {"graph6", "error", "detail"}
        assert gap["graph6"] == k4 and gap["error"] == "engine_gap"
        assert f"4-vertex graph {k4}" in gap["detail"]
        assert answer["graph6"] == C6 and answer["residual"] == []

    def test_partition3_uncolored_vertex_is_engine_gap(self, capsys, monkeypatch):
        # A rung that leaves a vertex uncolored (here the last component of
        # P4's cut-vertex step) is an engine gap record, not a traceback.
        from isolab import partition

        color = partition._color_components
        monkeypatch.setattr(
            partition, "_color_components",
            lambda g, comps, *rest: color(g, comps[:-1], *rest),
        )
        p4 = G.write_graph6(G.path_graph(4))
        code, out, _ = run_cli(capsys, ["partition3", "-"], f"{p4}\n{C6}\n", monkeypatch)
        assert code == 1
        gap, answer = (json.loads(line) for line in out.splitlines())
        assert gap["graph6"] == p4 and gap["error"] == "engine_gap"
        assert p4 in gap["detail"] and "every vertex" in gap["detail"]
        assert answer["graph6"] == C6 and answer["residual"] == []

    def test_broken_star_check_is_not_a_domain_error(self, capsys, monkeypatch):
        # A star that fails its own self-check is the engine's fault: it
        # escapes as RuntimeError instead of an "error":"domain" record.
        # Here the search keeps only the least leaf of the star it found,
        # on a graph whose BFS tree from vertex 0 is no star, is a star of
        # depth 1, and is one of depth 2 below a single vertex.
        star = lab.StarReduction
        monkeypatch.setattr(
            lab, "StarReduction", lambda center, leaves: star(center, leaves & -leaves)
        )
        spider = G.from_edges(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
        for g6 in ("FhP?G", G.write_graph6(G.star_graph(5)), G.write_graph6(spider)):
            with pytest.raises(RuntimeError, match="two leaves"):
                run_cli(capsys, ["star", "-"], g6 + "\n", monkeypatch)
            assert capsys.readouterr().out == ""

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

    def test_unwritable_cache_dir_exits_2(self, capsys, tmp_path, monkeypatch):
        # a read-only or full dir: the temp file beside the entry cannot be made
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(lab.tempfile, "mkstemp", refuse)
        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.delitem(lab._CONNECTED, 5, raising=False)
        code, out, err = run_cli(capsys, ["enum", "--order", "5", "--connected"])
        assert code == 2 and out == ""
        entry = tmp_path / "connected_n5.g6"
        assert err == f"isolab: error: cannot write cache file {entry}: Permission denied\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_rand_g_count_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["rand-g", "--order", "9", "--seed", "1", "--count", "-2"])
        assert code == 2 and out == ""
        assert err == "isolab: error: --count must be at least 0, not -2\n"
        code, out, err = run_cli(capsys, ["rand-g", "--order", "9", "--seed", "1", "--count", "0"])
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("text, detail", [
        ('{"base": "@", "pendants": [', None),
        ("[1]", "spec must be a JSON object"),
        ('{"base": "@", "pendants": [{"kind": "K2", "attach": 1}]}',
         "pendant 0: attach must be a list of integers"),
        ("[" * 200000, None),
        ('{"pendants": []}', "missing key 'base'"),
        ('{"base": "@"}', "missing key 'pendants'"),
        ('{"base": "@", "pendants": [{"attach": [0]}]}', "missing key 'kind'"),
        ('{"base": "@", "pendants": [{"kind": "K2"}]}', "missing key 'attach'"),
    ], ids=["malformed", "not-an-object", "attach-not-a-list", "nested-too-deep",
            "no-base", "no-pendants", "no-kind", "no-attach"])
    def test_bad_spec_is_invalid_spec(self, capsys, tmp_path, text, detail):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["gen-g", "--spec", str(path)])
        assert code == 1 and err == ""
        assert out.count("\n") == 1
        data = json.loads(out)
        assert set(data) == {"error", "detail"}
        assert data["error"] == "invalid_spec"
        if detail is not None:
            assert data["detail"] == detail


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


def run_python(args, env=None, **kwargs):
    """``python args`` in a child process that imports the isolab under
    test, whatever PYTHONPATH the test run was started with; ``env`` adds
    variables to the inherited ones."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lab.__file__)))
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


class TestProcessLevel:
    def test_console_script_runs(self):
        proc = run_python(["-m", "isolab.cli", "iso", "-"], input=C5 + "\n", text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["iota"] == 2

    def test_undecodable_stdin_is_graph6_error(self):
        proc = run_python(
            ["-m", "isolab.cli", "iso", "-"],
            input=b"\xff\xfe\n" + C5.encode() + b"\n",
            env={"PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 1 and proc.stderr == b""
        bad, good = (json.loads(line) for line in proc.stdout.decode().splitlines())
        assert bad["error"] == "graph6" and good["iota"] == 2

    def test_import_does_not_load_logging(self):
        # No module of the package imports logging.
        proc = run_python(
            ["-c", "import sys, isolab.cli; print('logging' in sys.modules)"], text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_unknown_command_exits_2(self):
        proc = run_python(["-m", "isolab.cli", "frobnicate"], text=True)
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self):
        proc = run_python(["-m", "isolab.cli", "iso", "--bogus"], text=True)
        assert proc.returncode == 2

    def test_threads_do_not_change_bytes(self):
        outs = []
        for k in ("1", "2"):
            proc = run_python(
                ["-m", "isolab.cli", "enum", "--order", "6", "--connected", "--threads", k],
                text=True,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def test_answer_record_escapes_backslashes(capsys, monkeypatch):
    # A backslash is the one graph6 character that JSON escapes; it heads
    # every line of order 29.
    line = G.write_graph6(G.path_graph(29))
    assert line[0] == "\\"
    code, out, _ = run_cli(capsys, ["star", "-"], line + "\n", monkeypatch)
    assert code == 0
    assert out.startswith('{"graph6":' + json.dumps(line) + ",")
    assert json.loads(out)["graph6"] == line


def test_recognize_spec_matches_the_json_encoder(capsys, monkeypatch):
    # A member on the base C\, whose graph6 body is a backslash: the spec
    # text is what the JSON encoder makes of family.spec_to_json.
    from isolab import family as F

    base = G.from_edges(4, [(0, 2), (1, 2), (0, 3), (2, 3)])
    assert G.write_graph6(base) == "C\\"
    pendants = [F.PendantAttachment("K2", (0,)), F.PendantAttachment("C5", (1, 3))] * 2
    g = F.build_family_graph(F.FamilySpec(base, tuple(pendants)))
    code, out, _ = run_cli(capsys, ["recognize-g", "-"], G.write_graph6(g) + "\n", monkeypatch)
    assert code == 0
    spec = json.dumps(F.spec_to_json(F.recognize_family(g)), separators=(",", ":"))
    assert "\\\\" in spec
    assert out.endswith('"member":true,"spec":' + spec + "}\n")


# sha256 of each query command's stdout over the query corpus: any changed
# output byte on the query path changes one of them.
QUERY_SHA256 = {
    "iso": "9c5c5d6782b5756f1a4e1804a6d723d917b8dd632c5a00f6c38a031526551c27",
    "dom": "83998b6dd1a0daeda0c791e3a4237c86c8b277f6ea9764e3a0f2e3d49fdf2970",
    "partition3 --trace": "8c4fd07118ac697cc3d93ea98f259ed3bb526c7b67fb7ddc2c0b0dde3954c1a3",
    "recognize-g": "5bce8fa21f54060ed3069e0d526dc8b5c7f67035e104a5afccaa25e3469dc9dc",
    "star": "cd8a3b16f36bc3f017ce84e3fdaf16dcde0ca8e0859c0d5e71542115e56fbefc",
}


@pytest.fixture(scope="module")
def query_corpus(small_connected, tmp_path_factory):
    """Every connected graph of order 3-7, 200 seeded random connected graphs
    of order 9-20, then C5, a disconnected graph, K1, K2 and a malformed
    line."""
    rng = random.Random(13)
    graphs = [g for n in range(3, 8) for g in small_connected[n]]
    graphs += [random_connected_graph(rng, rng.randrange(9, 21)) for _ in range(200)]
    graphs += [
        G.cycle_graph(5),
        G.disjoint_union(G.complete_graph(3), G.path_graph(3)),
        G.empty_graph(1),
        G.complete_graph(2),
    ]
    lines = [G.write_graph6(g) for g in graphs] + ["D?~~"]
    path = tmp_path_factory.mktemp("query") / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", sorted(QUERY_SHA256))
def test_query_bytes_pinned(capsys, query_corpus, command):
    code, out, _ = run_cli(capsys, command.split() + [query_corpus])
    assert code == 1  # the corpus holds domain and graph6 errors
    assert hashlib.sha256(out.encode()).hexdigest() == QUERY_SHA256[command]


# sha256 of recognize-g's and star's stdout over leafy_and_dense_graphs():
# 200 relabeled family members of order 9-30, most with several pendant
# blocks, and 200 graphs of minimum degree 3, which are members of nothing.
FAMILY_QUERY_SHA256 = {
    "recognize-g": "c0b95bfcbc32f0257a63132851d2f84c8f2429db8b1db7ef0c4723cc07e29d61",
    "star": "25a3e58d42b11f65faa2a03a67f734aea8eeee21f9e1819657c1a2d551361d88",
}


@pytest.fixture(scope="module")
def family_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("family") / "corpus.g6"
    path.write_text("".join(G.write_graph6(g) + "\n" for g in leafy_and_dense_graphs()))
    return str(path)


@pytest.mark.parametrize("command", sorted(FAMILY_QUERY_SHA256))
def test_family_query_bytes_pinned(capsys, family_corpus, command):
    code, out, _ = run_cli(capsys, [command, family_corpus])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_QUERY_SHA256[command]


# sha256 of partition3 --trace's stdout over triangle_free_graphs(), whose
# cycle rung closes 150 cycles of length 6 and 50 of length 9.
TRIANGLE_FREE_TRACE_SHA256 = "d160f57992419908defa1e6355a5794bc95ab6e7105ded43ecbed690495c433f"


def test_triangle_free_trace_bytes_pinned(capsys, triangle_free, tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("".join(G.write_graph6(g) + "\n" for g in triangle_free))
    code, out, _ = run_cli(capsys, ["partition3", "--trace", str(path)])
    assert code == 0
    assert out.count("\n") == 200
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGLE_FREE_TRACE_SHA256
