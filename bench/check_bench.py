#!/usr/bin/env python3
"""Gate the kernel micro-bench report on medians.

Usage:
    python3 bench/check_bench.py [BENCH_kernels.json]
    python3 bench/check_bench.py --selftest

bench_micro_conv and bench_micro_integrator write BENCH_kernels.json.
Every time in it is the median of 7 timing loops
(bench_common.h, timeNsPerOpInterleaved), and every speedup is a ratio
of medians.
The gates:

* every vector-backend entry of the SIMD sweeps runs at >= 1.0x the
  forced scalar backend on the same kernel;
* the headline kernels conv_forward_avx2_8c8m32x32k3,
  wrms_norm_avx2_4096 and linear_matvec_panels_avx2_64x64 (the batched
  MLP f's hidden layer) run at >= 1.5x;
* one batched MLP f evaluation over 4 states costs per sample at most
  1 / 0.85 of a batch of one (coalescing requests must not cost
  compute);
* one solo MLP f evaluation (the f adapter on one state, what every solo
  solve runs) costs at most 1 / 0.85 of a batch of one (both run the
  layers' one forward arithmetic, so the solo path must not cost more).

A missing headline entry fails. The report's "stamp" (build type,
SIMD backend, core count, compiler) is for the reader; no gate reads
it. Exits 0 when every gate holds, 1 otherwise.
"""

import json
import sys

HEADLINE_SPEEDUPS = {
    "conv_forward_avx2_8c8m32x32k3": 1.5,
    "wrms_norm_avx2_4096": 1.5,
    "linear_matvec_panels_avx2_64x64": 1.5,
}
BATCH1 = "mlp_feval_batch1_16x64x2"
BATCH4 = "mlp_feval_batch4_16x64x2"
SOLO = "mlp_feval_solo_16x64x2"
BATCH_TOLERANCE = 0.85


def check(report):
    """Return the list of failed gates for a parsed report."""
    entries = {e["name"]: e for e in report["entries"]}
    failures = []

    swept = 0
    for name, e in entries.items():
        speedup = e.get("speedup_vs_scalar", 0.0)
        if speedup <= 0.0 or "_scalar_" in name:
            continue
        swept += 1
        if speedup < 1.0:
            failures.append(f"{name}: {speedup:.2f}x < 1.0x vs scalar")
    if not swept:
        failures.append("no vector-backend sweep entries found")

    for name, bound in HEADLINE_SPEEDUPS.items():
        e = entries.get(name)
        if e is None:
            failures.append(f"missing headline entry {name}")
        elif e["speedup_vs_scalar"] < bound:
            failures.append(
                f"{name}: {e['speedup_vs_scalar']:.2f}x < {bound}x")

    missing = [n for n in (BATCH1, BATCH4, SOLO) if n not in entries]
    for name in missing:
        failures.append(f"missing headline entry {name}")
    if BATCH1 in entries:
        one = entries[BATCH1]["ns_per_op"]
        if BATCH4 in entries:
            four = entries[BATCH4]["ns_per_op"]
            if four * BATCH_TOLERANCE > one:
                failures.append(
                    f"batched MLP f: {four:.1f} ns per sample at batch 4 > "
                    f"{one:.1f} / {BATCH_TOLERANCE} at batch 1")
        if SOLO in entries:
            solo = entries[SOLO]["ns_per_op"]
            if solo * BATCH_TOLERANCE > one:
                failures.append(
                    f"solo MLP f: {solo:.1f} ns > "
                    f"{one:.1f} / {BATCH_TOLERANCE} at batch 1")
    return failures


def selftest():
    """Check the gates against synthetic, stamped reports."""
    def entry(name, ns, speedup=0.0):
        return {"name": name, "ns_per_op": ns, "ns_min": ns, "ns_max": ns,
                "speedup_vs_scalar": speedup}

    def report(**overrides):
        entries = {
            "conv_forward_scalar_8c8m32x32k3": entry(
                "conv_forward_scalar_8c8m32x32k3", 9000.0, 1.0),
            "conv_forward_avx2_8c8m32x32k3": entry(
                "conv_forward_avx2_8c8m32x32k3", 3000.0, 3.0),
            "wrms_norm_scalar_4096": entry(
                "wrms_norm_scalar_4096", 2000.0, 1.0),
            "wrms_norm_avx2_4096": entry("wrms_norm_avx2_4096", 500.0, 4.0),
            "linear_matvec_panels_scalar_64x64": entry(
                "linear_matvec_panels_scalar_64x64", 2000.0, 1.0),
            "linear_matvec_panels_avx2_64x64": entry(
                "linear_matvec_panels_avx2_64x64", 300.0, 6.5),
            "axpy_avx2_4096": entry("axpy_avx2_4096", 900.0, 1.1),
            BATCH1: entry(BATCH1, 1000.0),
            BATCH4: entry(BATCH4, 800.0),
            SOLO: entry(SOLO, 1100.0),
        }
        for name, e in overrides.items():
            if e is None:
                del entries[name]
            else:
                entries[name] = e
        return {"stamp": {"build_type": "Release", "simd_backend": "avx2",
                          "hardware_concurrency": 4,
                          "compiler": "GNU 12.2.0"},
                "entries": list(entries.values())}

    cases = [
        ("passing", report(), []),
        ("failing",
         report(axpy_avx2_4096=entry("axpy_avx2_4096", 900.0, 0.9),
                **{BATCH4: entry(BATCH4, 1200.0)}),
         ["axpy_avx2_4096: 0.90x < 1.0x vs scalar",
          "batched MLP f: 1200.0 ns per sample at batch 4 > "
          "1000.0 / 0.85 at batch 1"]),
        ("missing headline",
         report(wrms_norm_avx2_4096=None,
                linear_matvec_panels_avx2_64x64=None, **{BATCH4: None}),
         ["missing headline entry wrms_norm_avx2_4096",
          "missing headline entry linear_matvec_panels_avx2_64x64",
          f"missing headline entry {BATCH4}"]),
        ("slow solo f",
         report(**{SOLO: entry(SOLO, 1200.0)}),
         ["solo MLP f: 1200.0 ns > 1000.0 / 0.85 at batch 1"]),
        ("missing solo f",
         report(**{SOLO: None}),
         [f"missing headline entry {SOLO}"]),
        ("slow panels",
         report(linear_matvec_panels_avx2_64x64=entry(
             "linear_matvec_panels_avx2_64x64", 1600.0, 1.25)),
         ["linear_matvec_panels_avx2_64x64: 1.25x < 1.5x"]),
    ]
    ok = True
    for label, rep, expected in cases:
        got = check(rep)
        if got != expected:
            ok = False
            print(f"selftest {label}: expected {expected}, got {got}")
    print("check_bench selftest " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    path = argv[1] if len(argv) > 1 else "BENCH_kernels.json"
    with open(path) as f:
        report = json.load(f)
    failures = check(report)
    if failures:
        print("check_bench FAILED:\n  " + "\n  ".join(failures))
        return 1
    entries = {e["name"]: e for e in report["entries"]}
    print(f"check_bench OK: vector backends >= 1.0x scalar, headline "
          f"kernels >= 1.5x, MLP f "
          f"{entries[BATCH4]['ns_per_op']:.1f} ns per sample at batch 4 "
          f"and {entries[SOLO]['ns_per_op']:.1f} solo "
          f"vs {entries[BATCH1]['ns_per_op']:.1f} at batch 1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
