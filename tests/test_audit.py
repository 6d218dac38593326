import hashlib
import importlib
import json

import pytest

import fiberbeta as fb
from fiberbeta import InvalidParams
from fiberbeta.audit import FERMAT_CASES


def row(report, label):
    matches = [r for r in report.rows if r.label == label]
    assert matches, f"no row labelled {label!r}"
    return matches[0]


def test_table1_suite():
    report = fb.audit("table1")
    assert not report.failed
    counts = report.counts()
    assert counts["MATCH"] == 85  # I (1) + III (4) + V (16) + VII (64)
    assert counts["MISMATCH"] == 0
    assert counts["INFO"] == 84  # II (4) + IV (16) + VI (64)
    anchor = row(report, "beta VII(1,1,1)")
    assert anchor.status == "MATCH"
    assert anchor.expected == "1/3" and anchor.computed == "1/3"
    assert row(report, "beta III(2)").computed == "1/4"
    assert row(report, "beta V(2,1)").computed == "1/4"
    two = row(report, "beta II(2)")
    assert two.status == "INFO"
    assert "delta=1" in two.note
    assert row(report, "beta IV(2,3)").status == "INFO"
    assert all("beta<=eps: yes" in r.note for r in report.rows)


def test_fermat_suite():
    report = fb.audit("fermat")
    assert not report.failed
    gx = row(report, "fermat(5,0) gamma[x]")
    assert gx.status == "MATCH" and gx.expected == "-4/25"
    thm = row(report, "fermat(5,0) beta vs tabulated p=5 bound (log 5 coefficient)")
    assert thm.status == "INFO"
    assert thm.expected == "188/125" and thm.computed == "16/5"
    assert "delta=212/125" in thm.note
    pend = row(report, "fermat(7,2) gamma[pendant]")
    assert pend.status == "INFO"
    assert pend.expected == "25/49" and pend.computed == "29/49"
    assert "delta=4/49" in pend.note
    for p, r in FERMAT_CASES:
        verdict = row(report, f"fermat({p},{r}) relative semipositivity verdict")
        assert verdict.status == "MATCH"
        paths = row(report, f"fermat({p},{r}) gamma paths (definition vs expanded)")
        assert paths.status == "MATCH"
        kdu = row(report, f"fermat({p},{r}) (K.U_D) vs tabulated closed form")
        assert kdu.status == "MATCH"


def test_x1n_suite():
    report = fb.audit("x1n")
    assert not report.failed
    assert row(report, "x1n(35) genus").computed == "25"
    assert row(report, "x1n(35) s at p=5").computed == "8"
    assert row(report, "x1n(35) component genus at p=5").computed == "9"
    assert row(report, "x1n(35) s at p=7").computed == "6"
    assert row(report, "x1n(35) component genus at p=7").computed == "10"
    beta_row = row(report, "x1n(35) global beta (weighted formal log-sum)")
    assert beta_row.computed == "18*log(5) + 16*log(7)"
    ratio_row = row(report, "x1n(35) reference asymptotic (1/2) phi(N) log N")
    assert ratio_row.status == "INFO"
    assert "ratio computed/reference = 1.408780" in ratio_row.note


def test_every_info_row_carries_an_exact_delta():
    # non-asserted comparisons are recorded, never silently dropped
    for suite in ("table1", "fermat", "x1n"):
        report = fb.audit(suite)
        for r in report.rows:
            if r.status == "INFO":
                assert "delta=" in r.note, (suite, r.label)
                assert r.expected and r.computed, (suite, r.label)


# SHA-256 of each suite's text report; any change to a report byte shows here
AUDIT_SHA256 = {
    "table1": "3cf3ad4d03c24fbb0941df04e754fbea3a88069f2fa4cdd18cf4fc0cac15fae7",
    "fermat": "134495a7dfa02566115c64101933762876771695275d68fae46684690d088a5a",
    "x1n": "2573fdb8831b2fcee549debaca1f4fbdc6d5a1b2bb70c78d8b67d8fc86bbfa12",
}
# and of its JSON mirror
AUDIT_JSON_SHA256 = {
    "table1": "1e572890bed4c0730ca18cfb7790380935537c2526c4a2a6dc435963f90fcc05",
    "fermat": "462249d62fba80e20ed96e554b24efbf0973ab33a9e68bceee22ecd7076f59d4",
    "x1n": "45f265ae5f11d1f8127f1a8fb12c1f7933ee94000967b99f873e214f38c6359d",
}


def test_reports_are_byte_deterministic():
    for suite in ("table1", "fermat", "x1n"):
        a = fb.audit(suite)
        b = fb.audit(suite)
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()
        digest = hashlib.sha256(a.to_text().encode("utf-8")).hexdigest()
        assert digest == AUDIT_SHA256[suite], suite
        digest = hashlib.sha256(a.to_json().encode("utf-8")).hexdigest()
        assert digest == AUDIT_JSON_SHA256[suite], suite


def test_json_mirror_matches_rows():
    report = fb.audit("x1n")
    data = json.loads(report.to_json())
    assert data["suite"] == "x1n"
    assert len(data["rows"]) == len(report.rows)
    assert data["rows"][0]["label"] == report.rows[0].label
    assert data["summary"] == report.counts()


def test_a_failed_assertion_is_a_mismatch_row(monkeypatch):
    audit_module = importlib.import_module("fiberbeta.audit")
    monkeypatch.setattr(audit_module, "x1n_genus", lambda N: 24)
    report = fb.audit("x1n")
    assert report.failed
    bad = row(report, "x1n(35) genus")
    assert (bad.status, bad.expected, bad.computed) == ("MISMATCH", "25", "24")
    assert row(report, "x1n(35) s at p=5").status == "MATCH"


def test_mismatch_rows_carry_both_values_and_flip_failed():
    # AuditReport semantics, exercised directly
    bad = fb.AuditReport(
        suite="demo",
        rows=(fb.AuditRow("x", "1", "2", "MISMATCH", ""),),
    )
    assert bad.failed
    text = bad.to_text()
    assert "MISMATCH\tx\t1\t2" in text


def test_unknown_suite():
    with pytest.raises(InvalidParams):
        fb.audit("everything")
