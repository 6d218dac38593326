"""Reproduction audits against the published reference values.

Each suite recomputes a battery of tabulated quantities with the exact
engine and reports one row per comparison.  Rows come in three flavors:
MATCH (asserted comparison that holds), MISMATCH (asserted comparison
that fails; always carries both exact values), and INFO (recorded but
not asserted, used where the reference material is internally
inconsistent and the audit's job is to document the exact deltas rather
than to enforce them).  A MISMATCH never aborts a suite; it flips the
process exit code instead.

Reports are byte-deterministic: fixed row order, exact rationals in
canonical text form, and decimal renderings via the correctly rounded
evaluator.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from functools import partial

from .catalog import (
    GENUS2_ARITY,
    euler_phi,
    fermat_component_ids,
    fermat_fiber,
    genus2_type,
    prime_factors,
    table1_reference,
    valid_fermat_r,
    x1n_fiber,
    x1n_genus,
    x1n_model,
)
from .divisors import (
    gamma_by_definition,
    gamma_u,
    pair_with_component,
    solve_vertical,
    u_dot_component_closed,
)
from .errors import InvalidParams
from .fiber import unit_incidence, validate
from .invariants import beta_direct, beta_closed, semipositivity_certificate
from .linalg import build_laplacian, pseudoinverse
from .logsum import FormalLogSum, evaluate, global_beta, rounded_decimal
from .rationals import Rat, format_rat, rat

SUITES = ("table1", "fermat", "x1n")


@dataclass(frozen=True)
class AuditRow:
    label: str
    expected: str
    computed: str
    status: str  # MATCH | MISMATCH | INFO
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    suite: str
    rows: tuple

    @property
    def failed(self) -> bool:
        return any(row.status == "MISMATCH" for row in self.rows)

    def counts(self) -> dict:
        out = {"MATCH": 0, "MISMATCH": 0, "INFO": 0}
        for row in self.rows:
            out[row.status] += 1
        return out

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}", "status\tlabel\texpected\tcomputed\tnote"]
        for row in self.rows:
            lines.append(
                f"{row.status}\t{row.label}\t{row.expected}\t{row.computed}\t{row.note}"
            )
        c = self.counts()
        lines.append(
            f"summary: rows={len(self.rows)} match={c['MATCH']} "
            f"mismatch={c['MISMATCH']} info={c['INFO']}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"suite": self.suite, "rows": [asdict(row) for row in self.rows], "summary": self.counts()},
            indent=2,
            ensure_ascii=True,
        )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format_rat(value)


def _row(asserted: bool, label, expected, computed, note="") -> AuditRow:
    """MATCH or MISMATCH when asserted, else INFO."""
    expected, computed = _fmt(expected), _fmt(computed)
    status = ("MATCH" if expected == computed else "MISMATCH") if asserted else "INFO"
    return AuditRow(label, expected, computed, status, note)


_asserted = partial(_row, True)
_info = partial(_row, False)


# -- genus-2 table ---------------------------------------------------------------

_TABLE1_ASSERTED = {"I", "III", "V", "VII"}


def _table1_rows() -> list:
    rows = []
    for kind in ("I", "II", "III", "IV", "V", "VI", "VII"):
        for params in itertools.product(range(1, 5), repeat=GENUS2_ARITY[kind]):
            ref = table1_reference(kind, params)
            fiber = genus2_type(kind, params)
            P = pseudoinverse(build_laplacian(fiber))
            engine = beta_closed(fiber, P).beta
            le_eps = "yes" if engine <= ref.epsilon else "NO"
            note = f"eps={format_rat(ref.epsilon)}; beta<=eps: {le_eps}"
            asserted = kind in _TABLE1_ASSERTED
            if not asserted:
                note += f"; delta={format_rat(engine - ref.beta)} (parameter convention not asserted)"
            rows.append(_row(asserted, f"beta {ref.label}", ref.beta, engine, note))
    return rows


# -- Fermat suite -----------------------------------------------------------------

FERMAT_CASES = [(5, 0), (7, 2)] + [(11, rr) for rr in valid_fermat_r(11)] + [
    (13, rr) for rr in valid_fermat_r(13)
]


def fermat_bound_polynomial(p: int, r: int) -> Rat:
    """Tabulated general lower-bound polynomial in (p, r), coefficient of log p."""
    num = (
        (4 + 2 * r) * p**6
        - (32 + 10 * r) * p**5
        + (10 + 19 * r) * p**4
        + (124 - r - 25 * r**2) * p**3
        + (-56 + 52 * r + 31 * r**2) * p**2
        + (156 - 328 * r + 112 * r**2) * p
        + 144 - 24 * r + 60 * r**2
    )
    return rat(num, 4 * p**3 * (p - 1) * (p - 2))


def fermat_shifted_square_reference(p: int, r: int) -> Rat:
    """Tabulated polynomial for (2 V_D + U_D)^2 on the Fermat fiber."""
    return (
        rat(-p * r, 2)
        - rat(r, 2)
        + 1
        + rat(1, p) * (rat(7 * r, 4) - 5)
        + rat(1, p**2) * (rat(25 * r**2, 4) - 5 * r - 1)
        + rat(1, p**3) * (17 - 30 * r + 11 * r**2)
        + rat(1, p**4) * (12 - 2 * r + 5 * r**2)
    )


def fermat_k_dot_u_reference(p: int, r: int) -> Rat:
    """Tabulated (K . U_D) = (p-3)((1-p)/p^2 + (s+2)(1+p)/p^2 + r(1+p/2)/p^2)."""
    s = p - 3 - 2 * r
    return (p - 3) * (
        rat(1 - p, p**2) + (s + 2) * rat(1 + p, p**2) + r * rat(2 + p, 2 * p**2)
    )


# The four tabulated coefficient families of U_D.
def fermat_ud_reference(p: int) -> dict:
    return {
        "x": rat(1 - p, p**2),
        "yzbeta": rat(1 + p, p**2),
        "alpha": rat(2 + p, 2 * p**2),
        "pendant": rat(p * p + p - 6, 2 * p**2),
    }


_PENDANT_NOTE = (
    "not asserted: the tabulated pendant coefficient conflicts with the defining "
    "equations; (V_pendant . L_x) = a'_x = 1/p forces gamma_pendant = "
    "(p^2+p+2)/(2p^2), while the tabulated derivation used (V_pendant . V_x) = "
    "-1/p^2 in place of +1/p^2"
)


def _gamma_family_rows(p: int, r: int, gamma, fam, index) -> list:
    ref = fermat_ud_reference(p)
    rows = []

    def family_value(ids):
        values = sorted({format_rat(gamma[index[cid]]) for cid in ids})
        return values[0] if len(values) == 1 else "{" + ", ".join(values) + "}"

    rows.append(
        _asserted(f"fermat({p},{r}) gamma[x]", ref["x"], family_value(fam["x"]))
    )
    rows.append(
        _asserted(
            f"fermat({p},{r}) gamma[y,z,beta]",
            ref["yzbeta"],
            family_value(fam["yz"] + fam["beta"]),
        )
    )
    if r >= 1:
        rows.append(
            _asserted(
                f"fermat({p},{r}) gamma[alpha]", ref["alpha"], family_value(fam["alpha"])
            )
        )
        computed = family_value(fam["pendant"])
        delta = gamma[index[fam["pendant"][0]]] - ref["pendant"]
        rows.append(
            _info(
                f"fermat({p},{r}) gamma[pendant]",
                ref["pendant"],
                computed,
                _PENDANT_NOTE + f"; delta={format_rat(delta)}",
            )
        )
    return rows


#: The tabulated bounds for single primes, coefficient of log p.
_TABULATED_BOUNDS = {(5, 0): rat(188, 125), (7, 2): rat(37277, 6860)}


def _fermat_rows() -> list:
    rows = []
    for p, r in FERMAT_CASES:
        label = f"fermat({p},{r})"
        fiber = fermat_fiber(p, r)
        rows.append(
            _asserted(f"{label} reference-divisor self-check", "pass", "pass")
        )
        P = pseudoinverse(build_laplacian(fiber))
        D = unit_incidence(fiber, "x")
        gv = gamma_u(fiber, P, D)
        gd = gamma_by_definition(fiber, P, D)
        agree = "identical" if gv.gamma == gd.gamma else "DIFFER"
        rows.append(
            _asserted(
                f"{label} gamma paths (definition vs expanded)", "identical", agree
            )
        )
        fam = fermat_component_ids(p, r)
        rows.extend(_gamma_family_rows(p, r, gv.gamma, fam, fiber.index))

        cert = semipositivity_certificate(fiber, P, D)
        rows.append(
            _asserted(
                f"{label} relative semipositivity verdict",
                "true",
                "true" if cert.verdict else "false",
            )
        )

        report = beta_direct(fiber, P, D)
        rows.append(
            _asserted(
                f"{label} (K.U_D) vs tabulated closed form",
                fermat_k_dot_u_reference(p, r),
                report.k_dot_u,
            )
        )
        square_ref = fermat_shifted_square_reference(p, r)
        rows.append(
            _info(
                f"{label} (2V_D+U_D)^2 vs tabulated polynomial",
                square_ref,
                report.shifted_square,
                f"delta={format_rat(report.shifted_square - square_ref)}",
            )
        )
        poly = fermat_bound_polynomial(p, r)
        rows.append(
            _info(
                f"{label} beta vs tabulated (p,r) polynomial (log p coefficient)",
                poly,
                report.beta,
                f"delta={format_rat(report.beta - poly)}",
            )
        )
        bound = _TABULATED_BOUNDS.get((p, r))
        if bound is not None:
            rows.append(
                _info(
                    f"{label} beta vs tabulated p={p} bound (log {p} coefficient)",
                    bound,
                    report.beta,
                    f"delta={format_rat(report.beta - bound)}",
                )
            )

        # (U_D . Gamma_x): closed degree-1 form vs the pairing route.
        closed = u_dot_component_closed(fiber, P, D, fiber.index["x"])
        paired = pair_with_component(gv.u_divisor, fiber.index["x"])
        note = "" if r == 0 else (
            "closed degree-1 form is proved for reduced fibers only; "
            f"delta={format_rat(paired - closed)}"
        )
        rows.append(_row(r == 0, f"{label} (U_D.Gamma_x) closed vs pairing", closed, paired, note))

        # Canonical-divisor constant: coefficient on L_x of (2g-2) V_D mod fiber,
        # normalized so the coefficient on L_y vanishes.
        vd = solve_vertical(fiber, P, D)
        coeff = (2 * fiber.genus - 2) * (
            vd.coefficients[fiber.index["x"]] - vd.coefficients[fiber.index["y"]]
        )
        rows.append(
            _info(
                f"{label} canonical-divisor L_x coefficient (2g-2)V_D vs tabulated 1/p",
                rat(1, p),
                coeff,
                "tabulated constant is inconsistent with (2g-2) a'_x = p-3; "
                f"delta={format_rat(coeff - rat(1, p))}",
            )
        )
    return rows


# -- modular-curve suite -----------------------------------------------------------

_X1N_EXPECTED = {
    35: {"genus": 25, "fibers": {5: (8, 9), 7: (6, 10)}, "beta": {5: 18, 7: 16}},
    55: {"genus": 81, "fibers": {5: (20, 31), 11: (10, 36)}, "beta": {5: 40, 11: 32}},
}


def _x1n_rows() -> list:
    rows = []
    for N, expected in _X1N_EXPECTED.items():
        g = x1n_genus(N)
        rows.append(_asserted(f"x1n({N}) genus", expected["genus"], g))
        for p, (s_exp, q_exp) in expected["fibers"].items():
            fiber = x1n_fiber(N, p)
            s_comp = int(fiber.intersection("G1", "G2"))
            q_comp = fiber.components[0].genus
            rows.append(_asserted(f"x1n({N}) s at p={p}", s_exp, rat(s_comp)))
            rows.append(_asserted(f"x1n({N}) component genus at p={p}", q_exp, rat(q_comp)))
            rows.append(
                _asserted(
                    f"x1n({N}) banana consistency 2q+s-1=g at p={p}",
                    g,
                    rat(2 * q_comp + s_comp - 1),
                )
            )
            ok = validate(fiber).ok
            rows.append(
                _asserted(f"x1n({N}) fiber validation at p={p}", "pass", "pass" if ok else "fail")
            )
        model = x1n_model(N)
        beta = global_beta(model)
        expected_sum = FormalLogSum({p: rat(c) for p, c in expected["beta"].items()})
        rows.append(
            _asserted(
                f"x1n({N}) global beta (weighted formal log-sum)",
                str(expected_sum),
                str(beta),
            )
        )
        half_phi = FormalLogSum({p: rat(euler_phi(N), 2) for p in prime_factors(N)})
        delta = beta + FormalLogSum({p: -c for p, c in half_phi.terms})
        rows.append(
            _info(
                f"x1n({N}) reference asymptotic (1/2) phi(N) log N",
                str(half_phi),
                str(beta),
                f"delta={delta} ; ratio computed/reference = "
                + rounded_decimal(lambda: beta.to_mpf() / half_phi.to_mpf(), 6)
                + f" ; beta evaluated = {evaluate(beta, 6)}"
                + " ; the two-component example convention would halve each local beta",
            )
        )
    return rows


def audit(suite: str) -> AuditReport:
    """Run one audit suite; failures are report rows, never exceptions."""
    rows = {"table1": _table1_rows, "fermat": _fermat_rows, "x1n": _x1n_rows}.get(suite)
    if rows is None:
        raise InvalidParams(f"unknown audit suite {suite!r}; choose from {SUITES}")
    return AuditReport(suite=suite, rows=tuple(rows()))
