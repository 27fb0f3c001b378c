"""Bench: cost of access-pattern signatures and live phase tracking.

Phase tracking folds one feature vector per epoch into an online
centroid and the end-of-run signature is a single pass over frozen heat
counts, so the whole ``repro-sig`` layer must stay cheap: the acceptance
bar is < 1.3x over the traced+heat configuration it rides on
(``heat_no_sites``: 64 buckets, no source attribution).

Ratios land in ``BENCH_signature.json`` and are guarded by the conftest
perf-regression check (a >25% ratio regression fails the run).
"""

from repro.telemetry.overhead import measure_overhead


def test_signature_overhead_under_1_3x(once, bench_record):
    rows = once(measure_overhead, workloads=("sw",), repeats=3)
    for r in rows:
        print(f"\n{r['workload']}: signature+phases "
              f"{r['signature_x']:.2f}x over traced+heat")
        bench_record(f"signature_overhead_{r['workload']}", file="signature",
                     signature_x=round(max(r["signature_x"], 1.0), 3))
        assert r["signature_x"] < 1.3
