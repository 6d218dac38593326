import io
import json
import time

import pytest

import fiberbeta as fb
from fiberbeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "banana" in out and "fermat" in out


def test_catalog_emit_and_validate(tmp_path, capsys):
    doc = tmp_path / "banana.json"
    code, _, _ = run(capsys, "catalog", "emit", "banana", "--params", "1,1,1", "--out", str(doc))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0
    assert "summary: ok" in out
    assert "PASS\tfiber-relation[G1]" in out


def test_validate_reports_failures_with_exit_zero(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    fiber, _ = fb.parse_fiber(
        fb.serialize_fiber(fb.banana(1, 1, 1))
    )
    text = fb.serialize_fiber(fiber).replace('"genus": 2', '"genus": 5')
    doc.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0
    assert "FAIL\tgenus-consistency" in out
    assert "summary: inconsistent" in out


def test_compute_beta_closed_and_direct(tmp_path, capsys):
    doc = tmp_path / "banana.json"
    run(capsys, "catalog", "emit", "banana", "--params", "3,0,0", "--out", str(doc))
    code, out, _ = run(capsys, "compute", str(doc))
    assert code == 0
    assert "beta\t1/3\tpath=closed_form" in out
    fdoc = tmp_path / "fermat.json"
    run(capsys, "catalog", "emit", "fermat", "--params", "5,0", "--out", str(fdoc))
    code, out, _ = run(capsys, "compute", str(fdoc), "--op", "beta", "--divisor", "S_x")
    assert code == 0
    assert "beta\t16/5\tpath=direct\tdivisor=S_x" in out
    assert "beta_closed\t16/5" in out


def test_compute_divisor_ops(tmp_path, capsys):
    fdoc = tmp_path / "fermat.json"
    run(capsys, "catalog", "emit", "fermat", "--params", "5,0", "--out", str(fdoc))
    code, out, _ = run(capsys, "compute", str(fdoc), "--op", "vdiv")
    assert code == 0
    assert "x\t4/25" in out
    code, out, _ = run(capsys, "compute", str(fdoc), "--op", "udiv")
    assert "x\t-4/25" in out and "y\t6/25" in out
    code, out, _ = run(capsys, "compute", str(fdoc), "--op", "resistance")
    assert "x\ty\t2/5" in out
    code, out, _ = run(capsys, "compute", str(fdoc), "--op", "semipos")
    assert "verdict=true" in out


def test_compute_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "compute", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err
    doc = tmp_path / "banana.json"
    run(capsys, "catalog", "emit", "banana", "--params", "1,1,1", "--out", str(doc))
    code, _, err = run(capsys, "compute", str(doc), "--op", "vdiv")
    assert code == 1  # no horizontal divisor in the document
    code, _, err = run(capsys, "compute", str(doc), "--op", "beta", "--divisor", "nope")
    assert code == 1
    code, _, err = run(capsys, "catalog", "emit", "banana", "--params", "1,0")
    assert code == 1
    code, _, err = run(capsys, "catalog", "emit", "banana", "--params", "a,b,c")
    assert code == 1


def test_float_document_rejected(tmp_path, capsys):
    doc = tmp_path / "f.json"
    text = fb.serialize_fiber(fb.banana(1, 1, 1)).replace(
        '"self_intersection": -1', '"self_intersection": -1.0'
    )
    doc.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 1
    assert "rejected" in err


def test_oversized_integer_literals_exit_one(tmp_path, capsys):
    big = "7" * 5000
    text = fb.serialize_fiber(fb.banana(1, 1, 1))
    bare = tmp_path / "bare.json"
    bare.write_text(text.replace('"value": 1', f'"value": {big}'), encoding="utf-8")
    quoted = tmp_path / "quoted.json"
    quoted.write_text(
        text.replace('"self_intersection": -1', f'"self_intersection": "-1/{big}"', 1),
        encoding="utf-8",
    )
    for doc, path in ((bare, ""), (quoted, "components[0].self_intersection: ")):
        for command in ("validate", "compute"):
            code, out, err = run(capsys, command, str(doc))
            assert code == 1 and out == ""
            assert err == f"error: {path}integer literal of 5000 characters is too long\n"
    logsum = tmp_path / "sum.json"
    for value in (big, f'"1/{big}"'):
        logsum.write_text(f'{{"5": {value}}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", str(logsum), "--digits", "4")
        assert code == 1
        assert err == "error: integer literal of 5000 characters is too long\n"


def test_audit_cli(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    json_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "audit",
        "--suite",
        "x1n",
        "--out",
        str(out_path),
        "--json",
        str(json_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("suite: x1n")
    data = json.loads(json_path.read_text(encoding="utf-8"))
    assert data["summary"]["MISMATCH"] == 0
    code, out, _ = run(capsys, "audit", "--suite", "x1n")
    assert code == 0
    assert out == fb.audit("x1n").to_text()


def test_audit_mismatch_exit_code(capsys, monkeypatch):
    import fiberbeta.cli as cli

    failed = fb.AuditReport(
        suite="demo", rows=(fb.AuditRow("x", "1", "2", "MISMATCH", ""),)
    )
    monkeypatch.setattr(cli, "audit", lambda suite: failed)
    code, out, _ = run(capsys, "audit", "--suite", "x1n")
    assert code == 2
    assert "MISMATCH\tx\t1\t2" in out


def test_evaluate_cli(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "sum.json"
    doc.write_text('{"5": "188/125"}', encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 0
    assert out.strip() == "2.4206"
    monkeypatch.setattr("sys.stdin", io.StringIO('{"5": "1"}'))
    code, out, _ = run(capsys, "evaluate", "--digits", "6")
    assert code == 0
    assert out.strip() == "1.609438"
    doc.write_text('{"five": 1}', encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 1


def test_version_names_the_rational_backend(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    backend = type(fb.rat(1)).__module__
    assert capsys.readouterr().out == f"fiberbeta {fb.__version__} ({backend})\n"


def test_huge_products_render_exactly(tmp_path, capsys):
    # each literal is under the 4300-digit input limit, but the fiber
    # relation's witness b * Gamma^2 has 8000 digits
    big = 10**4000 - 1
    doc = tmp_path / "huge.json"
    doc.write_text(
        json.dumps({
            "schema_version": 1, "name": "huge", "genus": 2,
            "components": [{"id": "G", "multiplicity": 1, "genus": 2, "self_intersection": 0}],
            "intersections": [],
        }).replace('"multiplicity": 1', f'"multiplicity": {"9" * 4000}')
        .replace('"self_intersection": 0', f'"self_intersection": {"9" * 4000}'),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 0 and err == ""
    witness = next(line for line in out.splitlines() if line.startswith("FAIL\tfiber-relation"))
    digits = witness.split(" = ")[1].split(" ")[0]
    # rebuild the integer from 1000-digit chunks, each under int()'s limit
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == big * big
    assert "summary: inconsistent" in out


@pytest.mark.parametrize("command", ["validate", "compute", "evaluate"])
def test_deeply_nested_documents_exit_one(tmp_path, capsys, command):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100000, encoding="utf-8")
    argv = [command, str(doc)] + (["--digits", "4"] if command == "evaluate" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "too deeply" in err
    assert err.count("\n") == 1


def test_oversized_catalog_parameters_exit_one(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "catalog", "emit", "fermat", "--params", "10000019,0")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_evaluate_rejects_composite_keys(tmp_path, capsys):
    doc = tmp_path / "sum.json"
    doc.write_text('{"4": 1, "2": -2}', encoding="utf-8")
    code, out, err = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 1 and out == ""
    assert err == "error: log-sum key must be an integer prime, got 4\n"
