"""From N agents to the mean field, and back to one agent.

The continuum story is only credible if finite societies behave the same
way.  This script (i) runs the exact event-by-event jump chain for small
and large N and measures how fast its averaged path approaches the ODE,
(ii) drops a single tagged agent into a frozen equilibrium crowd and checks
the long-run time it spends in each state, and (iii) asks the approximate-
Nash question: can that agent profit by deviating from the equilibrium
strategy?

Run: python demos/04_finite_population.py
"""

import dataclasses

import corruption_mfg as cm

p = cm.ModelParams(lam=1, r=1, b=1, f=0, q_soc=0, q_inf=0, w_R=0, w_H=1, w_C=10)
eq = cm.enumerate_equilibria(p)[0]
x0 = cm.PopulationState(1 / 3, 1 / 3, 1 / 3)

print("exact event path, N = 30 agents, first ten events:")
path = cm.simulate_population(p, cm.round_counts(30, x0), eq.strategy, 5.0, seed=2024)
for t, label, counts in list(path.events())[:10]:
    print("  t=%7.4f  %-5s -> counts (R=%2d, H=%2d, C=%2d)"
          % (t, label, counts.n_R, counts.n_H, counts.n_C))
print("  ... %d events in total by t=5" % len(path))
print()

print("law of large numbers: sup distance between averaged empirical path")
print("and the ODE path (20 replications, t_end = 10):")
for n_agents in (100, 1000, 10000):
    d, _ = cm.lln_convergence(p, n_agents, x0, eq.strategy, 10.0, 20, seed=7, dt=0.01)
    print("  N = %-6d distance = %.4f" % (n_agents, d))
print()

print("tagged agent at the corrupt equilibrium (background frozen):")
horizon = 3000.0
bg = cm.constant_trajectory(eq.state, horizon)
agent_path = cm.simulate_tagged_agent(p, bg, eq.strategy, seed=11, initial_state="R")
occ = {"R": 0.0, "H": 0.0, "C": 0.0}
for (t0, s0), (t1, _) in zip(agent_path, agent_path[1:]):
    occ[s0] += t1 - t0
t_last, s_last = agent_path[-1]
occ[s_last] += horizon - t_last
print("  occupation over t=%g: R %.3f, H %.3f, C %.3f (equilibrium: %.3f each)"
      % (horizon, occ["R"] / horizon, occ["H"] / horizon, occ["C"] / horizon, 1 / 3))
print()

print("approximate-Nash check (accumulated payoff over horizon 100):")
est = cm.deviation_gain(p, eq, horizon=100.0, N=1000, replications=100, seed=77)
print("  playing the equilibrium strategy: %.1f" % est.baseline_mean)
print("  best unilateral deviation:        %.1f  (gain %+.1f, se %.1f)"
      % (est.deviation_mean, est.gain, est.std_error))
forced = dataclasses.replace(eq, strategy=cm.HONEST_PROFILE, behavior=cm.Behavior.HONEST)
est_f = cm.deviation_gain(p, forced, horizon=100.0, N=1000, replications=100, seed=78)
print("  forced to play honest instead:    %.1f  (switching back gains %+.1f, se %.1f)"
      % (est_f.baseline_mean, est_f.gain, est_f.std_error))
print()
print("no profitable deviation from the equilibrium strategy, but a forced-")
print("honest agent recovers a large payoff by switching: the equilibrium is")
print("an approximate Nash point of the finite game.")
