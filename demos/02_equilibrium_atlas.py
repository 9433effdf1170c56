"""Every stationary equilibrium, and whether it can persist.

Three candidates cover the whole equilibrium set: an interior point with
corrupt behavior (root of a quadratic), an interior point with honest
behavior, and the all-honest boundary.  Depending on the parameters one,
two or three of them coexist, and only the stable ones can model observed
stationary behavior.  This script maps out the canonical cases and then
sweeps the detection effort b to show a society snapping from a bistable
regime to guaranteed honesty.

Run: python demos/02_equilibrium_atlas.py
"""

import dataclasses

import corruption_mfg as cm


def show(p, title):
    print(title)
    t = cm.classifier_xbar(p)
    print("  x_bar = %s" % ("%+.4f" % t.value if abs(t.value) < 1e6 else "%+g" % t.value))
    for rep in cm.enumerate_equilibria(p):
        verdict = cm.classify_equilibrium(p, rep)
        print("  %-16s x = (%.4f, %.4f, %.4f)  behavior=%-11s %s (%s)"
              % (rep.provenance.value, rep.state.x_R, rep.state.x_H, rep.state.x_C,
                 rep.behavior.value, verdict.classification.value, verdict.method.value))
        if rep.warnings:
            print("      warning: %s" % rep.warnings[0])
    print()


# No social interaction: a single equilibrium, corrupt or honest depending
# on whether the illegal premium beats fine plus wage ladder.
show(cm.ModelParams(lam=1, r=1, b=1, f=0, q_soc=0, q_inf=0, w_R=0, w_H=1, w_C=10),
     "interaction-free, fat illegal premium")
show(cm.ModelParams(lam=1, r=1, b=1, f=1, q_soc=0, q_inf=0, w_R=0, w_H=5, w_C=5.5),
     "interaction-free, thin premium plus fine")

# Strong infection pressure with a mild social norm: three equilibria
# coexist; both interior points are stable, the all-honest boundary is not.
p3 = cm.ModelParams(lam=0.1, r=1, b=0.2, f=0, q_soc=0.5, q_inf=2.0,
                    w_R=0, w_H=1, w_C=1.275)
show(p3, "infection-dominated society (bistable)")

# Without couplings the corrupt point has the closed form
# x_H* = r b / (lam r + lam b + r b), x_C* = r (1 - x_H*) / (r + b).
print("zero coupling: the enumeration reproduces the closed form")
p0 = cm.ModelParams(lam=2, r=1, b=0.5, f=0, q_soc=0, q_inf=0, w_R=0, w_H=1, w_C=10)
x_h = p0.r * p0.b / (p0.lam * p0.r + p0.lam * p0.b + p0.r * p0.b)
x_c = p0.r * (1 - x_h) / (p0.r + p0.b)
rep = cm.enumerate_equilibria(p0)[0]
print("  closed form: x_H = %.6f, x_C = %.6f" % (x_h, x_c))
print("  enumerated:  x_H = %.6f, x_C = %.6f, %s\n"
      % (rep.state.x_H, rep.state.x_C, rep.behavior.value))

# Policy lever: crank up detection effort b and watch the corrupt root and
# the bistability window disappear.
print("sweep of detection effort b at the bistable parameters:")
print("%8s  %7s  %s" % ("b", "x_bar", "equilibria (x_H -> verdict)"))
for b in (0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0):
    p = dataclasses.replace(p3, b=b)
    cells = []
    for rep in cm.enumerate_equilibria(p):
        verdict = cm.classify_equilibrium(p, rep)
        cells.append("%.3f -> %s" % (rep.state.x_H, verdict.classification.value))
    print("%8.2f  %7.3f  %s" % (b, cm.classifier_xbar(p).value, "; ".join(cells)))
print()
print("small b leaves the corrupt trap available; as b grows the interior")
print("honest point slides up to the boundary, merges with it exactly at")
print("b = q_inf - q_soc - lam = 1.4 (the 'marginal' row), and past the")
print("merger only the all-honest state survives, now stable.")
