"""Classify every canonical f-structure into the Killing / nearly-Kaehler /
G1 classes as a function of the metric parameters (s, t).

The sweep detects, numerically, that on these flag spaces:
  * the order-4 structure f0 (and order-6 f1) is Killing exactly at
    (s, t) = (1, 4/3) and nearly Kaehler exactly on the line s = 1;
  * f2 and f3 are nearly Kaehler for every metric, f4 never is;
  * every structure is G1 for every metric."""

import flagf
from flagf.classify import ClassEvaluator, class_evaluators
from flagf.metricgeom import MetricParams

for n, k, labels in [(5, 4, ("f0",)), (6, 6, ("f1", "f2", "f3", "f4"))]:
    ps = flagf.build_phi_space(flagf.build_automorphism(n, 1, k))
    split = flagf.build_split(ps)
    fs = flagf.generate_f_structures(ps)
    print(f"=== order {k}, n = {n} ===")
    # One evaluator per structure, all set up together; each gives its three exact zero sets.
    for label, ev in zip(labels, class_evaluators([flagf.structure_by_label(fs, label) for label in labels], split)):
        print(f"{label}:")
        for cond in ("kill", "nk", "g1"):
            print(f"   {cond.upper():<4} zero set: {ev.zero_set(cond).description()}")
    print()

# Drill into one point: f1 at the Killing metric and just off it.
ps = flagf.build_phi_space(flagf.build_automorphism(6, 1, 6))
split = flagf.build_split(ps)
f1 = flagf.structure_by_label(flagf.generate_f_structures(ps), "f1")
ev = ClassEvaluator(f1, split)
for s, t in [(1.0, 4.0 / 3.0), (1.0, 1.0), (2.0, 4.0 / 3.0)]:
    rep = ev.report(MetricParams(s, t, kappa=5.0))
    verdicts = ", ".join(
        f"{name}={'yes' if rep.memberships[name] else 'no'} ({rep.residuals[name]:.1e})"
        for name in ("kill", "nk", "g1")
    )
    print(f"f1 at (s, t) = ({s}, {t:.4f}): {verdicts}")
