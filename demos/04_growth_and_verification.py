#!/usr/bin/env python3
"""Index growth with depth, size caps, and the cross-route verification grid."""

from clique_blowup import (
    BlowupParams,
    SizeCapExceededError,
    blowup_counts,
    blowup_iterate,
    default_corpus,
    gen_family,
    kemeny_blowup_closed,
    kf_star_exact,
    kemeny_exact,
    run_verification,
    tau_blowup_closed,
    tau_exact,
)

square = gen_family("cycle", 4)
kf0 = kf_star_exact(square)
ke0 = kemeny_exact(square)
tau0 = tau_exact(square)

print("4-cycle under repeated n=3 blowups (all values exact):")
print(f"{'r':>2} {'vertices':>10} {'edges':>10} {'Kemeny':>14} {'spanning trees':>20}")
for r in range(5):
    params = BlowupParams(3, r)
    counts = blowup_counts(4, 4, params)
    ke = kemeny_blowup_closed(ke0, 4, 4, params)
    tau = tau_blowup_closed(tau0, 4, 4, params)
    tau_text = str(tau) if tau < 10**18 else f"~10^{len(str(tau)) - 1}"
    print(f"{r:>2} {counts.vertices:>10} {counts.edges:>10} {float(ke):>14.4f} {tau_text:>20}")

# explicit construction is guarded by a vertex cap; the closed forms are not
print("\ntrying to construct the r=9 blowup:")
try:
    blowup_iterate(square, BlowupParams(3, 9))
except SizeCapExceededError as exc:
    print(f"  refused: {exc}")
print("counts are still exact:", blowup_counts(4, 4, BlowupParams(3, 9)))

# the verification harness replays every cross-check over a corpus grid
print("\ncross-route verification over three corpus graphs:")
corpus = [entry for entry in default_corpus() if entry[0] in ("complete:2", "cycle:4", "petersen")]
report = run_verification(corpus, n_list=[3, 4], r_list=[1, 2])
print(report.matrix([name for name, _ in corpus]))
print(report.summary())
