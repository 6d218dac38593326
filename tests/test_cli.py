import hashlib
import io
import json
import time

import pytest

import fiberbeta as fb
from fiberbeta import cli
from fiberbeta.catalog import catalog_entry
from fiberbeta.cli import main

from oracles import limit_document


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


def test_evaluate_digits_up_to_the_limit(capsys, monkeypatch):
    limit = fb.logsum.MAX_DIGITS
    monkeypatch.setattr("sys.stdin", io.StringIO('{"5": "188/125"}'))
    code, out, err = run(capsys, "evaluate", "--digits", str(limit))
    assert code == 0 and err == ""
    assert out.startswith("2.4205946") and len(out) == limit + 3  # "2." and "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO('{"5": "188/125"}'))
    code, out, err = run(capsys, "evaluate", "--digits", str(limit + 1))
    assert code == 1 and out == ""
    assert err == f"error: digits past {limit} are not rendered, got {limit + 1}\n"


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


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"5": "1", "5": "2"}', "duplicate object key(s): ['5']"),
        (b'{"5": "1\xff"}', "document is not UTF-8: "),
        (b'{"5": 1.5}', "float literal '1.5' rejected"),
    ],
)
def test_evaluate_reads_log_sums_as_strictly_as_fibers(tmp_path, capsys, text, message):
    doc = tmp_path / "sum.json"
    doc.write_bytes(text)
    code, out, err = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_evaluate_terms_up_to_the_limit(tmp_path, capsys):
    limit = fb.logsum.MAX_TERMS
    primes = [p for p in range(2, 10**4) if fb.logsum.is_prime(p)][:limit]
    doc = tmp_path / "sum.json"
    doc.write_text(json.dumps({str(p): "1/3" for p in primes}), encoding="utf-8")
    code, out, err = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 0 and err == ""
    assert out == fb.evaluate(fb.FormalLogSum({p: fb.rat(1, 3) for p in primes}), 4) + "\n"
    # one term more is refused before any key is tested: these are composite
    doc.write_text(json.dumps({str(4 * k): 1 for k in range(1, limit + 2)}), encoding="utf-8")
    code, out, err = run(capsys, "evaluate", str(doc), "--digits", "4")
    assert code == 1 and out == ""
    assert err == f"error: log-sum has {limit + 1} terms; the limit is {limit}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "{tmp}"], "cannot read {tmp}: "),
        (["catalog", "emit", "banana", "--params", "1,1,1", "--out", "{tmp}/missing/x.json"],
         "cannot write {tmp}/missing/x.json: "),
        (["audit", "--suite", "x1n", "--out", "{tmp}/missing/x.txt"], "cannot write {tmp}/missing/x.txt: "),
    ],
)
def test_file_errors_end_in_one_error_line(tmp_path, capsys, argv, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + message.format(tmp=tmp_path)) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "compute"])
@pytest.mark.parametrize("extra", [{"extra_components": 1}, {"extra_entries": 1}])
def test_oversized_documents_exit_one(tmp_path, capsys, command, extra):
    doc = tmp_path / "big.json"
    doc.write_text(limit_document(**extra), encoding="utf-8")
    code, out, err = run(capsys, command, str(doc))
    assert code == 1 and out == ""
    assert err.startswith("error: document has ") and err.count("\n") == 1
    assert err.endswith("the limits are 2000 and 10000\n")


@pytest.mark.parametrize("kind, params", [("fermat", (11, 3)), ("VII", (3, 4, 5))])
def test_compute_reads_only_the_sparse_m_and_the_factor(tmp_path, capsys, monkeypatch, kind, params):
    # every op of compute works from M's stored rows and the factor: the
    # dense M view and the dense M+ are never built
    fiber = fb.fermat_fiber(*params) if kind == "fermat" else fb.genus2_type(kind, params)
    doc = tmp_path / "fiber.json"
    D = fb.unit_incidence(fiber, fiber.ids[0])
    doc.write_text(fb.serialize_fiber(fiber, [D]), encoding="utf-8")
    made = []
    monkeypatch.setattr(cli, "pseudoinverse", lambda M: made.append((M, fb.pseudoinverse(M))) or made[-1][1])
    runs = [["--op", op] for op in cli.COMPUTE_OPS] + [["--op", "beta", "--divisor", D.id]]
    for extra in runs:
        code, out, err = run(capsys, "compute", str(doc), *extra)
        assert code == 0 and out and err == "", extra
    assert len(made) == len(runs)
    for M, P in made:
        assert "entries" not in vars(M) and "mplus" not in vars(P)


# SHA-256 of `compute` stdout per op, on a document whose one horizontal
# divisor D meets the first and the last component; any change to an
# output byte shows here
COMPUTE_ARGV = {
    "beta": ["--op", "beta"],
    "beta-divisor": ["--op", "beta", "--divisor", "D"],
    "vdiv": ["--op", "vdiv"],
    "udiv": ["--op", "udiv"],
    "semipos": ["--op", "semipos"],
    "resistance": ["--op", "resistance"],
}
COMPUTE_SHA256 = {
    ("fermat", "11,3", "beta"): "f3453630fd5eec4aada5a3df430b4bee2a6d609b32107990863ee22b7909bf8d",
    ("fermat", "11,3", "beta-divisor"): "f3453630fd5eec4aada5a3df430b4bee2a6d609b32107990863ee22b7909bf8d",
    ("fermat", "11,3", "vdiv"): "504b99f35077afa126b9a2676f23e3a898a5a1c903ca259c7fcb53fd7281d234",
    ("fermat", "11,3", "udiv"): "63e02acf290e87b8c1cb93deccdf77de0adc16d41fbd1cadeaf0a098b9870c97",
    ("fermat", "11,3", "semipos"): "9e68e6463752a57122ca01ab2a1ef404817f8fe94c74cbcf2703242efd27206d",
    ("fermat", "11,3", "resistance"): "781176023a3bbea2b7be8a1975326f061011d7e1b2f7edb4b0550b5bc8e41d43",
    ("genus2", "VII,2,3,4", "beta"): "685fcb1d75b27daac5d394716a1e8b5b74785f042af1b52c65f7f1557fbae2c3",
    ("genus2", "VII,2,3,4", "beta-divisor"): "e402c8a2e44d5b5c42f3964b1331a098374a026a0448a153c5cfcc416f474763",
    ("genus2", "VII,2,3,4", "vdiv"): "100bd294236a06a869654764074017dce691c483420e8090f9a4a65ef65f908c",
    ("genus2", "VII,2,3,4", "udiv"): "56ba0ab3b79e16c9f22ea758a6225aa68703c293e07d0983b486777e3bcc5bb8",
    ("genus2", "VII,2,3,4", "semipos"): "0e0293c619ad1de3d9f279b53dca24a7e882f0ba8e5218af6181d59e1387b704",
    ("genus2", "VII,2,3,4", "resistance"): "46d100e553f45dffaf6a39963c5390d5a184cc8d3559a248379576dd847ae0e2",
}


@pytest.mark.parametrize("name, params, op", sorted(COMPUTE_SHA256))
def test_resistance_table_bytes_are_pinned(tmp_path, capsys, name, params, op):
    fiber = catalog_entry(name, params.split(","))
    D = fb.HorizontalIncidence("D", 1, {fiber.ids[0]: fb.rat(1, 2), fiber.ids[-1]: fb.rat(1, 2)})
    doc = tmp_path / "fiber.json"
    doc.write_text(fb.serialize_fiber(fiber, [D]), encoding="utf-8")
    code, out, err = run(capsys, "compute", str(doc), *COMPUTE_ARGV[op])
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == COMPUTE_SHA256[(name, params, op)]


# SHA-256 of `catalog emit genus2` stdout, one parameter set per type
EMIT_SHA256 = {
    "I": "99e740309050a3a353481d828bb76bf1f1dd7fb9a14bda28e405ecc5e81997b0",
    "II,3": "a563b4d9aa866bacd07b37bf0edc53dd69942dcf9266e373ab48a88a54663ca9",
    "III,4": "9042c4b6c21a6e6240890dd9c3f9e6cf3225f6525b73c6e833dc3a3fbbc0655b",
    "IV,2,3": "7af346a0464cc247a795e3cba1ee00af96e39e7ff7bc0feef43fb0fd545004a7",
    "V,3,2": "534dabb3bef89861708a4e95b16b51e6a23892d1ce300c1aaeb7bbc01c05b4bf",
    "VI,2,3,4": "1074f10307d2c17e14f4f88f2c1a2a4623a4dabc62113f61d181f1f78406f4c9",
    "VII,3,4,5": "5d8c912e7673d9ffc293aae9414b0c828c804100635cae5a83564be0ad98bb6a",
}


@pytest.mark.parametrize("params", sorted(EMIT_SHA256))
def test_genus2_emit_bytes_are_pinned(capsys, params):
    code, out, err = run(capsys, "catalog", "emit", "genus2", "--params", params)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EMIT_SHA256[params]


# SHA-256 of `catalog emit` stdout for the other generators
CATALOG_EMIT_SHA256 = {
    ("banana", "1,1,1"): "4d8cae0388621b301e228510672686f345a52d029a5ce7180a85c0427e340899",
    ("banana", "3,0,0"): "ea153afba1e04911658daba3914e51806d7cda2f1f4782c75e049651f4f06f64",
    ("x1n", "35,5"): "eddb90be210fb5317bd13f2bef3547979a445ca2ed3d977a4cca017abf3ff501",
    ("x1n", "35,7"): "a9e627215f3a03737453bd83fb4389ff730b4f2b0ffeffdc56f8167d160fe9dd",
    ("x1n", "55,11"): "796b9946de26d9c173541c25899641fc3402249411cbcbcd0aee7e29bce5c250",
    ("fermat", "5,0"): "f5ed888f10361f93b36e134eaa2fcb483b91dd9bb74728cbf52af9728c83cf1c",
    ("fermat", "7,2"): "8a309b5c4480339149c83e7e06e9ddf4cc36f6db10c703b2c8c21aef0ad50def",
    ("fermat", "13,5"): "5c3fd8dd1189cae2b14b1fbbd585cc13157733e4e4c70c2ce3eeb67f7482a988",
    ("fermat", "19,8"): "75a58655d5cf1572fc4db64b0d5449192ffb8829204ad02b6ccf3b1f2fa14843",
}


@pytest.mark.parametrize("name, params", sorted(CATALOG_EMIT_SHA256))
def test_catalog_emit_bytes_are_pinned(capsys, name, params):
    code, out, err = run(capsys, "catalog", "emit", name, "--params", params)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_EMIT_SHA256[(name, params)]


# the one stderr line of each refused parameter set, exit code 1
REFUSED_PARAMS = {
    ("banana", "1"): "banana takes s,p1,p2",
    ("banana", "0,1,1"): "banana needs s >= 1, got 0",
    ("banana", "1,0,1"): "banana(1,0,1) has genus 1 <= 1",
    ("banana", "a,b,c"): "bad --params 'a,b,c': invalid literal for int() with base 10: 'a'",
    ("genus2", ""): "genus2 takes TYPE[,a,b,c]",
    ("genus2", "VIII,1"): "unknown genus-2 type 'VIII'",
    ("genus2", "II,1,2"): "type II takes 1 parameter(s), got 2",
    ("genus2", "II,0"): "type II parameters must be positive integers",
    ("x1n", "35"): "x1n takes N,p",
    ("x1n", "1,1"): "level must be an integer > 1, got 1",
    ("x1n", "36,2"): "level 36 is not squarefree",
    ("x1n", "21,3"): "level 21 admits no coprime factorization Q*R with Q, R >= 4",
    ("x1n", "35,11"): "11 is not a prime divisor of 35",
    ("fermat", "5"): "fermat takes p,r",
    ("fermat", "5,0,0"): "fermat takes p,r",
    ("fermat", "9,0"): "exponent must be a prime > 3, got 9",
    ("fermat", "5,-1"): "r must be a nonnegative integer, got -1",
    ("fermat", "7,3"): "fermat(7,3) needs s = p - 3 - 2r >= 0",
    ("fermat", "149,0"): (
        "fermat(149,0) would have 149 components and 11026 intersection entries; "
        "the limits are 2000 and 10000"
    ),
    ("nope", "1"): "unknown catalog generator 'nope'",
}


@pytest.mark.parametrize("name, params", sorted(REFUSED_PARAMS))
def test_refused_catalog_parameters_print_one_pinned_line(capsys, name, params):
    extra = ["--params", params] if params else []
    code, out, err = run(capsys, "catalog", "emit", name, *extra)
    assert code == 1 and out == ""
    assert err == f"error: {REFUSED_PARAMS[(name, params)]}\n"


def test_elimination_past_the_work_limit_exits_one(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "fermat.json"
    code, _, _ = run(capsys, "catalog", "emit", "fermat", "--params", "11,3", "--out", str(doc))
    assert code == 0
    code, out, err = run(capsys, "compute", str(doc), "--op", "beta")
    assert code == 0 and err == ""
    emitted = run(capsys, "catalog", "emit", "fermat", "--params", "11,3")
    assert emitted[0] == 0 and emitted[2] == ""
    # fermat(11,3): the 8 main components meet pairwise, so the grounded
    # factor does far more than 100 updates
    monkeypatch.setattr(fb.linalg, "MAX_ELIMINATION_WORK", 100)
    code, out, err = run(capsys, "compute", str(doc), "--op", "beta")
    assert code == 1 and out == ""
    assert err.startswith("error: eliminating M needs more than 100 entry updates")
    assert err.count("\n") == 1
    # the Fermat self-check puts the reference divisors into their defining
    # equations and factors nothing, so emit does not meet the limit
    assert run(capsys, "catalog", "emit", "fermat", "--params", "11,3") == emitted


# SHA-256 of `validate` stdout on VII(2,3,2) (six components, seven
# intersection entries) and on copies of its document broken one way each
VALIDATE_EDITS = {
    "ok": lambda doc: None,
    "genus-mismatch": lambda doc: doc.update(genus=3),
    "wrong-self-intersection": lambda doc: doc["components"][0].update(self_intersection=-4),
    "no-intersections": lambda doc: doc.update(intersections=[]),
    "zeroed-intersection": lambda doc: doc["intersections"][6].update(value=0),
    "isolated-component": lambda doc: doc.update(intersections=[
        e for e in doc["intersections"] if "n4" not in (e["a"], e["b"])
    ]),
    "changed-multiplicity": lambda doc: doc["components"][5].update(multiplicity=2),
    "genus-one": lambda doc: doc.update(genus=1),
}
VALIDATE_SHA256 = {
    "ok": "4a76539d94c62e60f296cad05336dd49f02d5e7aca120ae9b260a637aaa2899b",
    "genus-mismatch": "c658f520e91358307a046a61f05e5012d2689979effc68ff09210bd18a90eebb",
    "wrong-self-intersection": "41ee1df2a094974c202dd9861e5ec97accccf1649fc19f8e9847c4adbcc87572",
    "no-intersections": "2dcd445e7548fc920c3f791e5e9b4f5f7578340f8972639f6b7b80258e1025a7",
    "isolated-component": "69520ba44823ec3e06e689fe02d2117ae04fd3cb357f8b129c4836fdd9d9701c",
    "zeroed-intersection": "ae14b657fa118a86f711d44e50782764c45d7e585cd0dc35b848482e832dcea5",
    "changed-multiplicity": "ee8c32380178d0307395db8892272f1f27967cad445ae6fe4d306ddb32750fcb",
    "genus-one": "435498c780872f605688a2a7bb00dc0ac35171b055934d12b2b95963d0278a2a",
}


@pytest.mark.parametrize("case", sorted(VALIDATE_SHA256))
def test_validate_bytes_are_pinned(tmp_path, capsys, case):
    doc = json.loads(fb.serialize_fiber(fb.genus2_type("VII", (2, 3, 2))))
    VALIDATE_EDITS[case](doc)
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VALIDATE_SHA256[case]
