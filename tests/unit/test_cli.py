"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.hypermedia import build_instance, build_scheme
from repro.io import save_instance


def test_tour_runs(capsys):
    assert main(["tour"]) == 0
    out = capsys.readouterr().out
    assert "tour complete." in out
    assert "Figs. 28-29" in out


def test_export_scheme_stdout(capsys):
    assert main(["export", "scheme"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and '"Info"' in out


def test_export_instance_to_file(tmp_path, capsys):
    target = tmp_path / "instance.dot"
    assert main(["export", "instance", "-o", str(target)]) == 0
    assert "digraph" in target.read_text()
    assert str(target) in capsys.readouterr().out


def test_stats(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    path = tmp_path / "db.json"
    save_instance(db, path)
    assert main(["stats", str(path)]) == 0
    assert "Info: 13" in capsys.readouterr().out


def test_validate_ok(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    path = tmp_path / "db.json"
    save_instance(db, path)
    assert main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_corrupt_file(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    path = tmp_path / "db.json"
    save_instance(db, path)
    data = json.loads(path.read_text())
    # corrupt: give an Info node a second 'name' (functional), aimed at
    # another String node so the triple itself stays permitted
    labels = {node["id"]: node["label"] for node in data["nodes"]}
    edge = next(e for e in data["edges"] if e["label"] == "name" and labels[e["source"]] == "Info")
    other = next(n for n, label in labels.items() if label == "String" and n != edge["target"])
    data["edges"].append({"source": edge["source"], "label": "name", "target": other})
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err
    assert f"functional edge 'name' leaves node {edge['source']} 2 times" in err


def test_validate_reports_malformed_file_without_traceback(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    path = tmp_path / "db.json"
    save_instance(db, path)
    data = json.loads(path.read_text())
    data["nodes"][1]["id"] = data["nodes"][0]["id"]
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "INVALID: instance: nodes[1]: duplicate node id" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/db.json"]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_figures_export(tmp_path, capsys):
    target = tmp_path / "figs"
    assert main(["figures", "-d", str(target)]) == 0
    files = sorted(p.name for p in target.iterdir())
    assert "fig01_scheme.dot" in files
    assert "fig26_negation.dot" in files
    assert len(files) == 14
    for path in target.iterdir():
        assert path.read_text().startswith("digraph")


def test_run_dsl_script(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    script = tmp_path / "query.good"
    script.write_text(
        '''addnode Rock(tagged-to -> y) {
              x: Info; y: Info; d: Date = "Jan 14, 1990"; n: String = "Rock";
              x -created-> d; x -name-> n; x -links-to->> y;
           }'''
    )
    output = tmp_path / "out.json"
    assert main(["run", str(instance_path), str(script), "-o", str(output)]) == 0
    out = capsys.readouterr().out
    assert "NA[Rock; tagged-to]: 2 matchings" in out
    from repro.io import load_instance

    result = load_instance(output)
    assert len(result.nodes_with_label("Rock")) == 2


def test_run_reports_dsl_errors(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    script = tmp_path / "broken.good"
    script.write_text("delnode ghost { x: Info; }")
    assert main(["run", str(instance_path), str(script)]) == 1
    assert "ERROR" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_shell_piped_session(tmp_path, capsys):
    import subprocess
    import sys

    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    out_path = tmp_path / "final.json"
    script = (
        'addnode Answer { }\n'
        '\n'
        ':undo\n'
        ':save ' + str(tmp_path / "mid.json") + '\n'
        'addnode Answer { }\n'
        '\n'
        ':quit\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "shell", str(instance_path), "-o", str(out_path)],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "NA[Answer; ]" in proc.stdout
    assert "undone." in proc.stdout
    from repro.io import load_instance

    mid = load_instance(tmp_path / "mid.json")
    assert mid.nodes_with_label("Answer") == frozenset()  # undo took effect
    final = load_instance(out_path)
    assert len(final.nodes_with_label("Answer")) == 1


def test_shell_reports_bad_statements(tmp_path):
    import subprocess
    import sys

    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "shell", str(instance_path)],
        input="delnode ghost { x: Info; }\n\n:quit\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "ERROR" in proc.stdout


def _failing_script(tmp_path):
    """Two tagging ops, then an edge addition that conflicts (functional
    'favorite' edge to every links-to target)."""
    script = tmp_path / "prog.good"
    script.write_text(
        "addnode Tag1(of -> x) { x: Info; }\n"
        "addnode Tag2(of -> x) { x: Info; }\n"
        "addedge { x: Info; y: Info; x -links-to->> y; } add x -favorite-> y\n"
    )
    return script


def test_run_atomic_failure_reports_rollback(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    script = _failing_script(tmp_path)
    output = tmp_path / "out.json"
    assert main(["run", str(instance_path), str(script), "-o", str(output)]) == 1
    err = capsys.readouterr().err
    assert "ERROR" in err
    assert "rolled back" in err  # the FailureReport summary
    assert not output.exists()  # nothing saved on an atomic failure


def test_run_no_atomic_skips_the_report(tmp_path, capsys):
    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    script = _failing_script(tmp_path)
    assert main(["run", str(instance_path), str(script), "--no-atomic"]) == 1
    err = capsys.readouterr().err
    assert "ERROR" in err
    assert "rolled back" not in err


def test_run_savepoint_keeps_completed_prefix(tmp_path, capsys):
    from repro.io import load_instance

    scheme = build_scheme()
    db, _ = build_instance(scheme)
    instance_path = tmp_path / "db.json"
    save_instance(db, instance_path)
    script = _failing_script(tmp_path)
    output = tmp_path / "out.json"
    assert (
        main(["run", str(instance_path), str(script), "--savepoint", "1", "-o", str(output)])
        == 1
    )
    captured = capsys.readouterr()
    assert "rolled back to savepoint 'op-2'" in captured.err
    assert "2 of 3 operations kept" in captured.err
    result = load_instance(output)
    # the two completed tagging ops survived; the failed one left nothing
    assert result.nodes_with_label("Tag1")
    assert result.nodes_with_label("Tag2")
    assert not result.scheme.is_functional("favorite")


def test_serve_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--db",
            "a=a.json",
            "--db",
            "b=b.json",
            "-p",
            "9999",
            "--max-clients",
            "4",
            "--queue",
            "16",
            "--max-matchings",
            "5000",
        ]
    )
    assert args.db == ["a=a.json", "b=b.json"]
    assert args.port == 9999
    assert args.max_clients == 4
    assert args.queue == 16
    assert args.max_matchings == 5000
    assert args.max_call_depth is None


def test_removed_no_mvcc_flag_is_rejected(capsys):
    from repro.cluster.worker import worker_main

    with pytest.raises(SystemExit) as serve_exit:
        main(["serve", "--no-mvcc"])
    assert serve_exit.value.code == 2
    with pytest.raises(SystemExit) as worker_exit:
        worker_main(["--data-dir", "unused", "--no-mvcc"])
    assert worker_exit.value.code == 2
    assert "--no-mvcc" in capsys.readouterr().err


def test_removed_wal_format_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as serve_exit:
        main(["serve", "--wal-format", "binary"])
    assert serve_exit.value.code == 2
    assert "--wal-format" in capsys.readouterr().err


def test_removed_backend_flag_is_rejected(capsys):
    from repro.cli import build_parser

    # parse only: were the flag accepted, main() would start serving
    with pytest.raises(SystemExit) as serve_exit:
        build_parser().parse_args(["serve", "--backend", "tarski"])
    assert serve_exit.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_serve_rejects_bad_db_spec(capsys):
    assert main(["serve", "--db", "no-equals-sign"]) == 1
    assert "NAME=FILE" in capsys.readouterr().err


def test_serve_rejects_missing_instance_file(capsys):
    assert main(["serve", "--db", "x=/does/not/exist.json"]) == 1
    assert "ERROR" in capsys.readouterr().err


def test_connect_rejects_bad_port(capsys):
    assert main(["connect", "localhost:notaport"]) == 1
    assert "bad port" in capsys.readouterr().err


def test_connect_refused_connection(capsys):
    # nothing listens on this port of the loopback
    assert main(["connect", "127.0.0.1:1"]) == 1
    assert "cannot connect" in capsys.readouterr().err


def test_connect_piped_session(tmp_path, capsys, monkeypatch):
    import io
    import sys as _sys

    from repro.server import BackgroundServer, Catalog, GoodServer

    scheme = build_scheme()
    db, _ = build_instance(scheme)
    catalog = Catalog()
    catalog.add("hyper", db)
    server = GoodServer(catalog)
    with BackgroundServer(server):
        host, port = server.address
        script = ":list\n:match { d: Info }\naddnode Comment() { }\n\n:stats\n:quit\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(script))
        assert main(["connect", f"{host}:{port}", "-u", "hyper"]) == 0
    out = capsys.readouterr().out
    assert "connected to" in out
    assert "13 matchings" in out
    assert "database now:" in out
    # :stats renders the nested payload instead of dumping JSON
    assert "uptime" in out
    assert "database hyper:" in out
    assert "snapshots:" in out
    assert "lock wait:" in out
    assert '"requests"' not in out
