"""Paper fidelity beside speed: regenerate Tables I-III and Fig. 7.

``regenerate`` runs each experiment's ``run()`` and compares the
reproduced numbers with the paper's published ones.  It returns the
largest relative error and a digest of every regenerated row, so a
host-time gain that silently changes the model fails the run.
"""

from __future__ import annotations

import hashlib
import json


def regenerate() -> dict:
    from repro.experiments import figure7, table1, table2, table3
    from repro.experiments.common import relative_error

    errors = []
    results = [m.run() for m in (table1, table2, table3, figure7)]
    t1, t2, t3, f7 = results

    for lat, p_lat, g_star, p_gops in zip(
            t1.column("latency_ms"), t1.column("paper_ms"),
            t1.column("GOPS*"), t1.column("paper_GOPS")):
        errors += [relative_error(lat, p_lat), relative_error(g_star, p_gops)]

    protea_rows = [r for r in t2.rows if r[0] == "ProTEA (ours)"]
    for row, rec in zip(protea_rows, table2.TABLE2_COMPETITORS):
        errors.append(relative_error(row[4], rec.paper_protea_latency_ms))

    for row in t3.rows:
        if row[2].startswith("ProTEA"):
            _, _, p_ms, p_speedup = table3.PAPER_TABLE3[row[0]][-1]
            errors += [relative_error(row[4], p_ms),
                       relative_error(row[5], p_speedup)]

    tiles_mha, tiles_ffn, fmax = figure7.PAPER_OPTIMUM
    peak = max(f7.rows, key=lambda r: r[4])
    errors.append(relative_error(peak[4], fmax))
    if (peak[0], peak[1]) != (tiles_mha, tiles_ffn):
        errors.append(1.0)  # the published optimum is no longer the peak

    rows = [[r.name, r.headers, [list(row) for row in r.rows]]
            for r in results]
    text = json.dumps(rows, sort_keys=True, default=str)
    return {"max_rel_err": max(abs(e) for e in errors),
            "digest": hashlib.sha256(text.encode()).hexdigest()}
