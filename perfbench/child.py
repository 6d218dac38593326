"""One fresh interpreter: import fiberbeta, warm up, run one pass of ops.

Usage: child.py WORKDIR MODE RESULT, with MODE one of
  setup   import fiberbeta.cli and run the warm-up op, nothing else;
  pass    then time every op of WORKDIR/ops.json, tracing off;
  traced  the same with spans around fiberbeta's public functions.
Each op is one in-process fiberbeta.cli.main(argv) call with stdout
captured (or the library pipeline).  After the timed pass and after peak
RSS has been read, ops marked "relabel" run again on the canonical
component order.  The result, with every op's exit code and output, is
written as JSON to RESULT; the parent checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _pipeline(path: str) -> int:
    """The criterion-8 library sequence on one document, ending in psd_certificate."""
    fb = sys.modules["fiberbeta"]
    fiber, horizontals = fb.parse_fiber(Path(path).read_bytes())
    if not fb.validate(fiber).ok:
        raise ValueError(f"{fiber.name} fails validation")
    M = fb.build_laplacian(fiber)
    P = fb.pseudoinverse(M)
    D = horizontals["S_x"]
    fb.solve_vertical(fiber, P, D)
    fb.gamma_u(fiber, P, D)
    beta = fb.beta_direct(fiber, P, D)
    cert = fb.semipositivity_certificate(fiber, P, D)
    psd = fb.psd_certificate(M)
    fmt = fb.format_rat
    print(f"beta\t{fmt(beta.beta)}\tpath=direct\tdivisor={D.id}")
    print(f"V_D^2\t{fmt(beta.v_squared)}")
    print(f"(2V_D+U_D)^2\t{fmt(beta.shifted_square)}")
    print(f"(K.U_D)\t{fmt(beta.k_dot_u)}")
    print(f"semipositivity\tverdict={str(cert.verdict).lower()}")
    print(f"psd\tverdict={str(psd.is_psd).lower()}")
    return 0


def run_op(op: dict, argv=None):
    """(exit code or error text, stdout) of one op; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "pipeline" in op:
                rc = _pipeline(op["pipeline"])
            else:
                rc = sys.modules["fiberbeta.cli"].main(argv or op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a failed op is counted, never fatal
            rc = f"{type(exc).__name__}: {exc}"
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()[-300:]}"
    return rc, out.getvalue()


def main(workdir: str, mode: str, result_path: str) -> None:
    import fiberbeta.cli

    run_op({"argv": ["compute", "warmup.json", "--op", "beta"]})
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "backend": type(fiberbeta.rat(1)).__module__}
    if mode != "setup":
        spec = json.loads(Path(workdir, "ops.json").read_text())
        ops = spec["ops"]
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        outcomes, op_ns = [], []
        start = time.perf_counter_ns()
        for op in ops:
            t0 = time.perf_counter_ns()
            outcomes.append(run_op(op))
            op_ns.append(time.perf_counter_ns() - t0)
        result["wall_s"] = (time.perf_counter_ns() - start) / 1e9
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["op_ns"] = op_ns
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["laplacian_sizes"] = tracer.laplacian_sizes
        result["outcomes"] = outcomes
        result["relabel_mismatches"] = relabel_mismatches(ops, outcomes)
    Path(result_path).write_text(json.dumps(result))


def relabel_mismatches(ops: list, outcomes: list) -> list:
    """Indices of marked ops whose output differs, by id, on the canonical order."""
    import oracles

    bad = []
    for k, (op, (rc, out)) in enumerate(zip(ops, outcomes)):
        if op["relabel"] and rc == 0:
            canonical = [a.replace(".json", ".canonical.json") for a in op["argv"]]
            rc2, out2 = run_op(op, canonical)
            if rc2 != 0 or oracles.canonical_lines(op, out2) != oracles.canonical_lines(op, out):
                bad.append(k)
    return bad


if __name__ == "__main__":
    main(*sys.argv[1:4])
