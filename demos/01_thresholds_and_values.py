"""Where does corruption pay?

A single number answers it: the threshold x_bar on the honest fraction.
Below it the expected illegal reward beats the detection risk and the
individually optimal move is to become (or stay) corrupt; above it honesty
wins.  This script computes stationary values for both behavioral regimes
across the simplex and shows that the value ordering flips exactly at
x_bar, for both the long-run-average and the discounted criterion.

Run: python demos/01_thresholds_and_values.py
"""

import numpy as np

import corruption_mfg as cm

p = cm.ModelParams(lam=1.0, r=1.0, b=1.0, f=2.0, q_soc=1.5, q_inf=0.5,
                   w_R=0.0, w_H=1.0, w_C=5.0)
cm.validate_params(p)

threshold = cm.classifier_xbar(p)
print("detection effort b = %.2f, fine f = %.2f, wages (w_R, w_H, w_C) = (%g, %g, %g)"
      % (p.b, p.f, p.w_R, p.w_H, p.w_C))
print("regime threshold x_bar = %.6f" % threshold.value)
print()

# Sweep the honest fraction at a fixed corrupt share and watch g_C - g_H
# change sign at x_bar.
print("%8s  %10s  %10s  %10s  %12s" % ("x_H", "g_C", "g_H", "g_C-g_H", "best response"))
x_c = 0.10
for x_h in np.linspace(0.0, 0.85, 12):
    x = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
    resp = cm.best_response(p, x)
    v = resp.value
    print("%8.3f  %10.4f  %10.4f  %+10.4f  %12s"
          % (x_h, v.g_C, v.g_H, v.g_C - v.g_H, resp.behavior.value))
print()
print("sign flip sits at x_bar = %.6f as claimed" % threshold.value)
print()

# The discounted criterion tells the same story; its threshold moves with
# the discount rate because impatient agents discount future punishment.
print("discount rate delta vs discounted threshold:")
for delta in (1e-6, 0.1, 0.5, 1.0, 2.0, 5.0):
    t_d = cm.classifier_xbar_discounted(p, delta)
    print("  delta = %-8g x_bar(delta) = %.6f" % (delta, t_d.value))
print()

# Discounted values on both sides of the discounted threshold.
delta = 0.5
t_d = cm.classifier_xbar_discounted(p, delta).value
for x_h in (max(t_d - 0.1, 0.0), min(t_d + 0.1, 0.9)):
    x = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
    u, regime = (cm.CORRUPT_PROFILE, "corrupt") if x_h < t_d else (cm.HONEST_PROFILE, "honest")
    v = cm.solve_discounted(p, x, delta, u)
    print("x_H = %.3f: discounted g = (R %.3f, H %.3f, C %.3f), regime %s"
          % (x_h, v.g_R, v.g_H, v.g_C, regime))
