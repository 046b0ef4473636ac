"""Energy bookkeeping of the two-stage viscous scheme.

Runs the damped coupled-wave truncation and shows that every step satisfies

    E(z+) + dt^3 ||A z+||^2 + (dt^6/2) ||A^2 z+||^2 + dt ||B* m||^2 = E(z)

to rounding accuracy, so the trace's identity-residual column is a direct
audit of the integrator against the fixed tolerance ``AUDIT_RTOL * E0``.
The telescoped budget splits the total energy drop into damping and
viscosity shares.
"""

import numpy as np

from polystab import ExampleParams, ModalState, SchemeConfig, build_coupled_waves, factorize
from polystab.schemes import AUDIT_RTOL

sys_ = build_coupled_waves(ExampleParams(alpha=0.5, gamma=1.0, k_max=32))
cfg = SchemeConfig(dt=0.01, t_final=20.0)
rng = np.random.default_rng(1)
z0 = ModalState(rng.standard_normal(sys_.n), rng.standard_normal(sys_.n))

trace = factorize(sys_, cfg).run(z0)

print(f"modes: {sys_.n}, steps: {trace.damp.size}, dt = {cfg.dt}")
print(f"E0 = {trace.e0:.6f} -> E(T) = {trace.e_final:.6f}")
print(f"worst per-step identity residual: {trace.identity_residual.max():.3e}"
      f"  (tolerance {AUDIT_RTOL * trace.e0:.3e})")
print(f"telescoped residual: {trace.telescope_residual:.3e}"
      f"  (tolerance {trace.telescope_tol:.3e})")
print(f"identity_ok = {trace.identity_ok}, energy monotone = {trace.monotone_ok}")

drop = trace.e0 - trace.e_final
print("\ndissipation budget over [0, T]:")
print(f"  damping      : {trace.damp.sum():.6f}  ({100 * trace.damp.sum() / drop:.1f}%)")
print(f"  viscosity #1 : {trace.visc1.sum():.6f}  ({100 * trace.visc1.sum() / drop:.1f}%)")
print(f"  viscosity #2 : {trace.visc2.sum():.6e}  ({100 * trace.visc2.sum() / drop:.2g}%)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    ax1.semilogy(trace.t, trace.energy)
    ax1.set_ylabel("E(t)")
    ax1.set_title("damped viscous run: energy and identity residual")
    ax2.semilogy(trace.t[:-1], np.maximum(trace.identity_residual, 1e-22), ".", ms=2)
    ax2.axhline(AUDIT_RTOL * trace.e0, color="r", ls="--", label="tolerance")
    ax2.set_xlabel("t")
    ax2.set_ylabel("identity residual")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("energy_identity.png", dpi=120)
    print("\nwrote energy_identity.png")
except ImportError:
    pass
