#!/usr/bin/env python3
"""Kf*, the Kemeny constant, and spanning trees by three cross-checking routes.

spectral:    plug the eigenvalues into 2m*sum(1/lambda), sum(1/lambda),
             and (1/2m)*prod(d_i)*prod(lambda != 0)
oracle:      effective resistances (Kf* = sum d_i d_j r_ij) and the exact
             matrix-tree determinant
closed form: exact rational recurrences in the blowup depth, seeded with
             exact base values
"""

from fractions import Fraction

from clique_blowup import (
    BlowupParams,
    blowup_iterate,
    gen_family,
    kemeny_blowup_closed,
    kemeny_exact,
    kemeny_spectral,
    kf_star_blowup_closed,
    kf_star_direct,
    kf_star_exact,
    kf_star_spectral,
    laplacian_spectrum,
    resistance_matrix,
    tau_blowup_closed,
    tau_exact,
    tau_spectral,
)
from clique_blowup.indexes import _kemeny_r_level

triangle = gen_family("complete", 3)

print("resistances in the triangle (direct edge in parallel with a 2-edge path):")
print(resistance_matrix(triangle).round(6))

print("\nexact base values of the triangle:")
kf0, ke0, tau0 = kf_star_exact(triangle), kemeny_exact(triangle), tau_exact(triangle)
print(f"  Kf* = {kf0}, Kemeny = {ke0}, spanning trees = {tau0}")

params = BlowupParams(5, 1)
blown = blowup_iterate(triangle, params)
sigma = laplacian_spectrum(blown)
print(f"\nblowup with n=5 ({blown.vertex_count} vertices, {blown.edge_count} edges):")

print(f"  Kf*    spectral {kf_star_spectral(sigma, blown.edge_count):.10f}")
print(f"         oracle   {kf_star_direct(blown):.10f}")
print(f"         closed   {kf_star_blowup_closed(kf0, 3, 3, params)}")

print(f"  Kemeny spectral {kemeny_spectral(sigma):.10f}")
print(f"         closed   {kemeny_blowup_closed(ke0, 3, 3, params)}")

print(f"  trees  spectral {tau_spectral(blown, sigma):.4f}")
print(f"         oracle   {tau_exact(blown)}")
print(f"         closed   {tau_blowup_closed(tau0, 3, 3, params)}  (= 2 * 5^8 * 3)")

# The identity Kf* = 2m * Kemeny holds exactly in rational arithmetic.
kf1 = kf_star_blowup_closed(kf0, 3, 3, params)
ke1 = kemeny_blowup_closed(ke0, 3, 3, params)
print(f"\nKf* = 2m * Kemeny check: {kf1} == 2*{blown.edge_count}*{ke1} ->", kf1 == 2 * blown.edge_count * ke1)

# The closed forms iterate one-step recurrences and assert that the
# single-shot depth-r expressions give the same value.
print("\ndeeper Kemeny values, iterated and single-shot:")
ke2 = kemeny_blowup_closed(Fraction(1, 2), 2, 1, BlowupParams(3, 2))
single = _kemeny_r_level(Fraction(1, 2), 2, 1, 3, 2)
print(f"  Kemeny after two n=3 blowups of a single edge: {ke2}")
print(f"  single-shot {single} == iterated {ke2} ->", single == ke2)
