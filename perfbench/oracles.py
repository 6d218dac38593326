"""Output checks that share no code path with the engine.

Every expected value is derived here from the document text with
fractions.Fraction: a dense Gauss-Jordan pseudoinverse for small fibers,
the closed-form U_D families and V_D = (1/p) L_x on Fermat fibers, the
tabulated genus-2 closed forms, Foster's identity, an mpmath evaluation at
higher precision, and recorded audit summaries and digests.  check()
returns the list of reasons an op's output is wrong; an empty list means
it passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import mpmath

DENSE_MAX_R = 32


class Doc:
    """A fiber document read into exact data indexed by component."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.genus = data["genus"]
        comps = data["components"]
        self.ids = [c["id"] for c in comps]
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.b = [c["multiplicity"] for c in comps]
        self.pa = [c["genus"] for c in comps]
        self.self_int = [Fraction(c["self_intersection"]) for c in comps]
        self.pairs = {}
        for e in data["intersections"]:
            i, j = self.index[e["a"]], self.index[e["b"]]
            self.pairs[(min(i, j), max(i, j))] = Fraction(e["value"])
        (h,) = data["horizontal"]
        self.v = [Fraction(0)] * self.r
        for cid, val in h["incidence"].items():
            self.v[self.index[cid]] = Fraction(val)
        self.a = [-s + 2 * g - 2 for s, g in zip(self.self_int, self.pa)]
        self.a_norm = [x / (2 * self.genus - 2) for x in self.a]

    @property
    def r(self) -> int:
        return len(self.ids)

    @property
    def reduced(self) -> bool:
        return all(b == 1 for b in self.b)

    def dots(self, y) -> list:
        """(V . Gamma_i) for every i, with V = sum y_j Gamma_j."""
        out = [y[i] * self.self_int[i] for i in range(self.r)]
        for (i, j), val in self.pairs.items():
            out[i] += y[j] * val
            out[j] += y[i] * val
        return out

    def pair(self, y, z) -> Fraction:
        return sum((yi * di for yi, di in zip(y, self.dots(z))), Fraction(0))


def _inverse(m: list) -> list:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


class Expected:
    """Reference values for the degree-1 divisor of one document."""

    def __init__(self, doc: Doc, y, gamma, mplus=None):
        self.doc, self.gamma, self.mplus = doc, gamma, mplus
        shifted = [2 * yi + gi for yi, gi in zip(y, gamma)]
        g = doc.genus
        self.v_squared = doc.pair(y, y)
        self.shifted_square = doc.pair(shifted, shifted)
        self.k_dot_u = sum((gi * ai for gi, ai in zip(gamma, doc.a)), Fraction(0))
        self.beta = Fraction(1 - g, g) * self.shifted_square + 2 * self.k_dot_u
        u_dot = doc.dots(gamma)
        self.semipos = [doc.a[i] + 2 * doc.v[i] / doc.b[i] - u_dot[i] for i in range(doc.r)]

    def resistance(self, i: int, j: int) -> Fraction:
        n = self.mplus
        return n[i][i] + n[j][j] - 2 * n[i][j]

    def reduced_columns(self) -> tuple:
        """divisor_free and resistance_margin per component (reduced fibers)."""
        doc, n = self.doc, self.mplus
        nbrs = [[] for _ in range(doc.r)]
        for (i, j), val in doc.pairs.items():
            nbrs[i].append((j, -val))
            nbrs[j].append((i, -val))
        free, margin = [], []
        for i in range(doc.r):
            m_ii = -doc.self_int[i]
            s = n[i][i] * m_ii + sum((n[j][j] * m for j, m in nbrs[i]), Fraction(0))
            free.append(m_ii + 2 * doc.pa[i] - 2 + s + Fraction(2, doc.r))
            margin.append(m_ii + sum((self.resistance(i, j) * m for j, m in nbrs[i]), Fraction(0)))
        return free, margin


def dense_expected(doc: Doc) -> Expected:
    """Everything from M+ = (M + J/r)^-1 - J/r and the definition of U_D."""
    r, b = doc.r, doc.b
    m = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        m[i][i] = -b[i] * b[i] * doc.self_int[i]
    for (i, j), val in doc.pairs.items():
        m[i][j] = m[j][i] = -b[i] * b[j] * val
    j_r = Fraction(1, r)
    inv = _inverse([[x + j_r for x in row] for row in m])
    mplus = [[x - j_r for x in row] for row in inv]

    def correction(v):
        w = [b[i] * doc.a_norm[i] - v[i] for i in range(r)]
        return [-b[i] * sum((mplus[i][k] * w[k] for k in range(r) if w[k]), Fraction(0))
                for i in range(r)]

    y = correction(doc.v)
    y_sq = doc.pair(y, y)
    gamma = []
    for i in range(r):
        vi = correction([Fraction(int(k == i)) for k in range(r)])
        diff = [a - c for a, c in zip(y, vi)]
        gamma.append(y_sq - doc.pair(diff, diff))
    return Expected(doc, y, gamma, mplus)


def fermat_expected(doc: Doc, p: int) -> Expected:
    """Divisor on x: V_D = (1/p) L_x and the four U_D coefficient families."""
    family = {"x": Fraction(1 - p, p * p), "alpha": Fraction(2 + p, 2 * p * p),
              "pendant": Fraction(p * p + p + 2, 2 * p * p)}
    gamma = []
    for cid in doc.ids:
        if cid == "x":
            gamma.append(family["x"])
        elif cid.startswith("alpha"):
            gamma.append(family["pendant" if "." in cid else "alpha"])
        else:
            gamma.append(Fraction(1 + p, p * p))
    y = [Fraction(1, p) if cid == "x" else Fraction(0) for cid in doc.ids]
    return Expected(doc, y, gamma)


def fermat_k_dot_u_reference(p: int, r: int) -> Fraction:
    """Tabulated (K . U_D) on fermat(p, r) for the divisor on x."""
    s = p - 3 - 2 * r
    return (p - 3) * (Fraction(1 - p, p * p) + (s + 2) * Fraction(1 + p, p * p)
                      + r * Fraction(2 + p, 2 * p * p))


def table1_beta(kind: str, params) -> Fraction:
    """Tabulated genus-2 closed forms for beta (types I, III, V, VII)."""
    if kind == "I":
        return Fraction(0)
    if kind == "III":
        (a,) = params
        return Fraction(a, 6) - Fraction(1, 6 * a)
    if kind == "V":
        a, b = params
        return Fraction(a + b, 6) - Fraction(1, 6 * a) - Fraction(1, 6 * b)
    if kind == "VII":
        a, b, c = params
        sym = a * b + a * c + b * c
        eps = Fraction(a + b + c, 6) + Fraction(a * b * c, 6 * sym)
        cross = (a * a * b + a * a * c + a * b * b + 6 * a * b * c
                 + a * c * c + b * b * c + b * c * c)
        return eps - Fraction(cross, 6 * sym * sym)
    raise ValueError(f"no tabulated beta for type {kind}")


def evaluate_reference(terms: dict, digits: int) -> str:
    """sum c_p log p rounded to `digits` places, at digits + 60 working digits."""
    with mpmath.workdps(digits + 60):
        total = mpmath.mpf(0)
        for p, c in terms.items():
            c = Fraction(c)
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(int(p))
        n = int(mpmath.nint(total * mpmath.mpf(10) ** digits))
    body = str(abs(n)).rjust(digits + 1, "0")
    return f"{'-' if n < 0 else ''}{body[:-digits]}.{body[-digits:]}"


# -- per-op checks ----------------------------------------------------------------


def _rows(out: str) -> list:
    return [line.split("\t") for line in out.splitlines()]


def _expect(errors: list, label: str, got, want) -> None:
    if got != want:
        errors.append(f"{label}: got {got}, expected {want}")


def _check_beta(doc, out, op, exp, errors):
    rows = {row[0]: row for row in _rows(out)}
    if "beta" not in rows:
        errors.append("no beta line")
        return
    beta = Fraction(rows["beta"][1])
    direct = "--divisor" in op.get("argv", ()) or not doc.reduced or "pipeline" in op
    _expect(errors, "path", rows["beta"][2], "path=direct" if direct else "path=closed_form")
    if direct:
        parts = [Fraction(rows[k][1]) for k in ("V_D^2", "(2V_D+U_D)^2", "(K.U_D)")]
        g = doc.genus
        _expect(errors, "beta from printed parts", beta,
                Fraction(1 - g, g) * parts[1] + 2 * parts[2])
        if exp is not None:
            _expect(errors, "V_D^2", parts[0], exp.v_squared)
            _expect(errors, "(2V_D+U_D)^2", parts[1], exp.shifted_square)
            _expect(errors, "(K.U_D)", parts[2], exp.k_dot_u)
        if op["oracle"]["name"] == "fermat":
            o = op["oracle"]
            _expect(errors, "(K.U_D) vs tabulated", parts[2],
                    fermat_k_dot_u_reference(o["p"], o["r"]))
        if doc.reduced:
            _expect(errors, "beta_closed vs direct", Fraction(rows["beta_closed"][1]), beta)
    if exp is not None:
        _expect(errors, "beta", beta, exp.beta)
    table1 = op["oracle"].get("table1")
    if table1:
        _expect(errors, "beta vs genus-2 table", beta,
                table1_beta(table1["kind"], table1["params"]))


def _by_id(doc, out) -> dict:
    values = {row[0]: Fraction(row[1]) for row in _rows(out)[1:]}
    if set(values) != set(doc.ids):
        raise ValueError("output ids differ from the document's")
    return values


def _check_vdiv(doc, out, exp, errors):
    coef = _by_id(doc, out)
    y = [coef[cid] for cid in doc.ids]
    dots = doc.dots(y)
    for i, cid in enumerate(doc.ids):
        _expect(errors, f"(D + V_D . {cid})", doc.v[i] / doc.b[i] + dots[i], doc.a_norm[i])
    _expect(errors, "sum y_i / b_i of the M+ image",
            sum((yi / bi for yi, bi in zip(y, doc.b)), Fraction(0)), 0)


def _check_udiv(doc, out, exp, errors):
    gamma = _by_id(doc, out)
    if exp is not None:
        for i, cid in enumerate(doc.ids):
            _expect(errors, f"gamma[{cid}]", gamma[cid], exp.gamma[i])


def _check_semipos(doc, out, exp, errors):
    rows = _rows(out)
    values = {row[0]: row[1:] for row in rows[1:]}
    if set(values) != set(doc.ids):
        raise ValueError("output ids differ from the document's")
    q = [Fraction(values[cid][0]) for cid in doc.ids]
    _expect(errors, "verdict", rows[0][1], f"verdict={str(all(x >= 0 for x in q)).lower()}")
    if exp is None:
        return
    for i, cid in enumerate(doc.ids):
        _expect(errors, f"q[{cid}]", q[i], exp.semipos[i])
    if doc.reduced and exp.mplus is not None:
        free, margin = exp.reduced_columns()
        for i, cid in enumerate(doc.ids):
            _expect(errors, f"divisor_free[{cid}]", values[cid][1],
                    f"divisor_free={_fmt(free[i])}")
            _expect(errors, f"resistance_margin[{cid}]", values[cid][2],
                    f"resistance_margin={_fmt(margin[i])}")


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _check_resistance(doc, out, exp, errors):
    rows = _rows(out)[1:]
    res = {}
    for a, b, value in rows:
        res[(doc.index[a], doc.index[b])] = res[(doc.index[b], doc.index[a])] = Fraction(value)
    _expect(errors, "pair count", len(rows), doc.r * (doc.r - 1) // 2)
    foster = sum((doc.b[i] * doc.b[j] * val * res[(i, j)] for (i, j), val in doc.pairs.items()),
                 Fraction(0))
    _expect(errors, "Foster sum_edges (-m_ij) R_ij", foster, doc.r - 1)
    if exp is not None and exp.mplus is not None:
        for (i, j), value in res.items():
            if i < j:
                _expect(errors, f"R({doc.ids[i]},{doc.ids[j]})", value, exp.resistance(i, j))


def _check_emit(doc_text, out, errors):
    got, want = json.loads(out), json.loads(doc_text)

    def comps(d):
        return {c["id"]: c for c in d["components"]}

    def pairs(d):
        return {frozenset((e["a"], e["b"])): Fraction(e["value"]) for e in d["intersections"]}

    _expect(errors, "name", got["name"], want["name"])
    _expect(errors, "genus", got["genus"], want["genus"])
    if comps(got) != comps(want):
        errors.append("emitted components differ from the generator's")
    if pairs(got) != pairs(want):
        errors.append("emitted intersections differ from the generator's")
    _expect(errors, "horizontal", got.get("horizontal"), want["horizontal"])


def _check_audit(out, oracle, errors):
    counts = re.search(r"summary: rows=(\d+) match=(\d+) mismatch=(\d+) info=(\d+)", out)
    got = [int(x) for x in counts.groups()] if counts else None
    _expect(errors, "summary counts", got, oracle["counts"])
    _expect(errors, "report sha256", hashlib.sha256(out.encode()).hexdigest(), oracle["sha256"])


class Checker:
    """Checks op outputs, caching one Expected per document."""

    def __init__(self, docs: dict, read):
        self.docs = docs  # key -> metadata
        self.read = read  # key -> document text
        self._parsed = {}

    def parsed(self, key):
        if key not in self._parsed:
            doc = Doc(self.read(key))
            meta = self.docs[key]
            exp = None
            if meta["family"] == "fermat" and not doc.reduced:
                exp = fermat_expected(doc, meta["params"][0])
            elif doc.r <= DENSE_MAX_R:
                exp = dense_expected(doc)
            self._parsed[key] = (doc, exp)
        return self._parsed[key]

    def check(self, op: dict, rc, out: str) -> list:
        if rc != 0:
            return [f"exit {rc!r}"]
        errors = []
        oracle = op["oracle"]
        try:
            if oracle["name"] == "evaluate":
                _expect(errors, "decimal", out.strip(),
                        evaluate_reference(oracle["terms"], oracle["digits"]))
            elif oracle["name"] == "audit":
                _check_audit(out, oracle, errors)
            elif oracle["name"] == "emit":
                _check_emit(self.read(op["doc"] + ".canonical"), out, errors)
            else:
                doc, exp = self.parsed(op["doc"])
                if oracle["name"] == "none":
                    exp = None
                command = "pipeline" if "pipeline" in op else op["argv"][3]
                if command in ("beta", "pipeline"):
                    _check_beta(doc, out, op, exp, errors)
                if command == "pipeline":
                    rows = {row[0]: row for row in _rows(out)}
                    _expect(errors, "semipositivity", rows["semipositivity"][1], "verdict=true")
                    _expect(errors, "psd", rows["psd"][1], "verdict=true")
                elif command != "beta":
                    {"vdiv": _check_vdiv, "udiv": _check_udiv, "semipos": _check_semipos,
                     "resistance": _check_resistance}[command](doc, out, exp, errors)
        except Exception as exc:  # unreadable output fails this op only
            errors.append(f"unreadable output: {exc!r}")
        return errors


def canonical_lines(op: dict, out: str) -> list:
    """Output lines compared by id, independent of component order."""
    lines = out.splitlines()
    if op.get("argv", [None] * 4)[3] == "resistance":
        lines = ["\t".join(sorted(line.split("\t")[:2]) + line.split("\t")[2:])
                 for line in lines[1:]]
    return sorted(lines)


_RATIONAL = re.compile(r"(?<![\w.(/])-?(\d+)(?:/(\d+))?(?![\w.)/])")


def out_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the rationals in text."""
    best = 0
    for num, den in _RATIONAL.findall(text):
        best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best
