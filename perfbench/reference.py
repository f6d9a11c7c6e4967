"""Recorded reference outputs and the comparison behind ``fail_frac``.

References live in ``perfbench/ref/<workload>/seed<n>.json`` and hold one
pass of unit outputs recorded at the seed commit.  Tolerances:

- values: 1e-10 relative (the repository's ground rule for moved outputs);
- optimizer argmax coordinates, and quantities evaluated at the argmax:
  1e-6, the search tolerance of ``optimize.maximize_over_box``;
- oracle moments: within the oracle's own K -> 2K Richardson residual as
  recorded in the reference;
- CLI output: exit code exact, numbers at 1e-10 relative (they are printed
  with 12 significant digits), words exact; ``oracle-check`` output compares
  its oracle moments within the printed residual and skips ``rel_dev`` and
  ``snr_oracle``, which are functions of the compared numbers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from workloads import close, parse_oracle_cli

REF_DIR = Path(__file__).resolve().parent / "ref"
_TOKEN = re.compile(r"[\s,=()]+")


def path(workload: str, seed: int) -> Path:
    return REF_DIR / workload / f"seed{seed}.json"


def load(workload: str, seed: int) -> dict | None:
    p = path(workload, seed)
    return json.loads(p.read_text()) if p.is_file() else None


def save(workload: str, seed: int, outputs: dict) -> Path:
    p = path(workload, seed)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(outputs, indent=0, sort_keys=True) + "\n")
    return p


def _num(x) -> bool:
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool))


def _compare_rows(unit: str, rows: list, ref: list, tolerance) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    causes = []
    for row, rrow in zip(rows, ref):
        if row.keys() != rrow.keys():
            return [f"columns {sorted(row)} differ from reference {sorted(rrow)}"]
        for key, value in row.items():
            want = rrow[key]
            if not (_num(value) and _num(want)):
                ok = value == want
            else:
                kind = tolerance(unit, key)
                if kind == "argmax":
                    ok = close(value, want, 1e-6, 1e-6)
                elif kind == "oracle":
                    res = abs(rrow["residual_" + key.split("_")[0]])
                    ok = close(value, want, 1e-10, res)
                else:
                    ok = close(value, want, 1e-10)
            if not ok:
                causes.append(f"{key}={value!r}, reference {want!r}")
    return causes


def _compare_text(a: str, b: str) -> list[str]:
    ta, tb = _TOKEN.split(a.strip()), _TOKEN.split(b.strip())
    if len(ta) != len(tb):
        return [f"{len(ta)} output tokens, reference has {len(tb)}"]
    causes = []
    for x, y in zip(ta, tb):
        try:
            ok = close(float(x), float(y), 1e-10)
        except ValueError:
            ok = x == y
        if not ok:
            causes.append(f"{x!r}, reference {y!r}")
    return causes


def _compare_oracle_cli(a: str, b: str) -> list[str]:
    (ma, ra), (mb, rb) = parse_oracle_cli(a), parse_oracle_cli(b)
    if len(ma) != 4 or len(mb) != 4 or ra.keys() != rb.keys():
        return ["oracle-check output has not the reference layout"]
    causes = []
    for (state, field, an, orc, ok), (_, _, an_r, orc_r, ok_r) in zip(ma, mb):
        if not close(an, an_r, 1e-10):
            causes.append(f"{state} {field} analytic={an!r}, reference {an_r!r}")
        if not close(orc, orc_r, 1e-10, rb[state][field]):
            causes.append(f"{state} {field} oracle={orc!r}, reference {orc_r!r} "
                          f"+- {rb[state][field]!r}")
        if ok != ok_r:
            causes.append(f"{state} {field} ok={ok}, reference {ok_r}")
    for state in ra:
        if ra[state]["steps"] != rb[state]["steps"]:
            causes.append(f"{state} steps={ra[state]['steps']}, reference {rb[state]['steps']}")
    if a.strip().splitlines()[-1] != b.strip().splitlines()[-1]:
        causes.append("verdict differs from reference")
    return causes


def compare(unit: str, out, ref, tolerance) -> list[str]:
    """Causes by which ``out`` falls outside the reference (empty if it agrees)."""
    if isinstance(out, dict) and "exit" in out:
        if out["exit"] != ref["exit"]:
            return [f"exit {out['exit']}, reference {ref['exit']}"]
        if unit == "oracle-check":
            return _compare_oracle_cli(out["stdout"], ref["stdout"])
        return _compare_text(out["stdout"], ref["stdout"])
    return _compare_rows(unit, out, ref, tolerance)
