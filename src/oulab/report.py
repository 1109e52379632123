"""Probe reports: deterministic JSON documents plus CSV curve dumps.

Reports are pure functions of (config, seed): rerunning a probe with the
same inputs must produce byte-identical files.  Wall-clock runtime is
therefore kept out of the serialized payload (it goes to stderr) and all
writes are atomic so a crash never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field


def _canonical(obj):
    """Round-trip through JSON-compatible types with sorted keys and floats
    rendered via repr for stability."""
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _canonical(obj.tolist())
    if isinstance(obj, float):
        return float(repr(obj))
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def config_fingerprint(config: dict) -> str:
    blob = json.dumps(_canonical(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ProbeReport:
    name: str
    claim: str                      # neutral statement of what is probed
    inputs: dict
    statistics: dict                # named scalars
    tables: dict = field(default_factory=dict)   # name -> list of rows
    pass_flags: dict = field(default_factory=dict)
    ci: dict = field(default_factory=dict)       # name -> [lo, hi], 95 %
    seed: int = 0

    def effective_flags(self) -> dict:
        """The pass flags as reported: a report with any unstable or
        unconverged marker among its statistics cannot claim a pass, so
        such a marker turns every flag False."""
        shaky = any(("unstable" in k or "unconverged" in k) and bool(v)
                    for k, v in self.statistics.items())
        if shaky:
            return {k: False for k in self.pass_flags}
        return dict(self.pass_flags)

    def overall_pass(self) -> bool:
        return all(bool(v) for v in self.effective_flags().values())

    def to_dict(self) -> dict:
        flags = self.effective_flags()
        return {
            "name": self.name,
            "claim": self.claim,
            "inputs": _canonical(self.inputs),
            "fingerprint": config_fingerprint(self.inputs),
            "statistics": _canonical(self.statistics),
            "tables": _canonical(self.tables),
            "pass_flags": _canonical(flags),
            "ci": _canonical(self.ci),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_report(report: ProbeReport, path: str) -> None:
    _atomic_write(path, report.to_json())


def write_csv(path: str, header: list[str], rows, claim: str = "") -> None:
    """Atomic CSV dump; an optional leading comment states the claim the
    curve probes."""
    buf = io.StringIO()
    if claim:
        buf.write(f"# claim: {claim}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _fmt(v):
    """Floats as their repr; NumPy scalars as the Python value they hold
    (np.float64 is a float, but its repr names the type)."""
    if hasattr(v, "item"):
        v = v.item()
    return repr(v) if isinstance(v, float) else v


def emit_plot_data(report: ProbeReport, out_dir: str) -> list[str]:
    """One CSV per table of the report, a list of dicts whose first row's
    keys give the header; returns the written paths."""
    written = []
    for name, table in report.tables.items():
        if not table:
            continue
        path = os.path.join(out_dir, f"{name}.csv")
        header = list(table[0])
        write_csv(path, header, [[row[h] for h in header] for row in table],
                  claim=report.claim)
        written.append(path)
    return written
