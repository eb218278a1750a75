"""End-to-end certification checks.

Each test covers one acceptance criterion at its pinned tolerance and prints
a single pass/fail line (run with `pytest -s` to see them inline).
"""

import math
import time

import numpy as np

from bellrand import adversary as adv
from bellrand import belltest as bt
from bellrand import matkernel as mk
from bellrand import qobjects as qo
from bellrand import tomography as tg


def report(num, slug, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {num}] {slug}: {status}{suffix}")


def test_01_ideal_bell_values():
    start = time.perf_counter()
    worst = 0.0
    for theta in qo.theta_grid(50):
        values = bt.eval_bell(bt.ideal_scenario(theta))
        worst = max(worst, max(values.residuals))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "ideal-bell-values", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_02_spectral_selftest():
    worst_spec = 0.0
    worst_fid = 1.0
    for beta in np.linspace(0.0, 1.9, 20):
        rep = bt.spectral_selftest(beta)
        worst_spec = max(worst_spec, rep.eigenvalue_residual)
        worst_fid = min(worst_fid, rep.top_eigvec_fidelity)
    ok = worst_spec <= 1e-10 and worst_fid >= 1 - 1e-10
    report(2, "spectral-selftest", ok, f"spectrum dev {worst_spec:.2e}, fidelity {worst_fid:.12f}")
    assert worst_spec <= 1e-10
    assert worst_fid >= 1 - 1e-10


def test_03_projective_global_randomness():
    worst = 0.0
    entropies = []
    for theta in qo.theta_grid(10):
        for ancilla in (qo.ancilla_pure(), qo.ancilla_mixed()):
            table = bt.projective_joint_distribution(theta, ancilla)
            worst = max(worst, float(np.max(np.abs(table - 0.25))))
            entropies.append(adv.min_entropy(table.reshape(-1)))
    entropy_dev = max(abs(h - 2.0) for h in entropies)
    ok = worst <= 1e-12 and entropy_dev <= 1e-9
    report(3, "projective-global-two-bits", ok, f"uniformity dev {worst:.2e}")
    assert worst <= 1e-12
    assert entropy_dev <= 1e-9


def test_04_local_povm_randomness():
    worst = 0.0
    entropy_dev = 0.0
    for theta in qo.theta_grid(20):
        rho_a = mk.partial_trace(qo.psi_theta(theta).rho, (2, 2), keep=(0,))
        dist = np.array([mk.expval(e, rho_a) for e in qo.adjusted_tetrahedral(theta).elements])
        worst = max(worst, float(np.max(np.abs(dist - 0.25))))
        entropy_dev = max(entropy_dev, abs(adv.min_entropy(dist) - 2.0))
    ok = worst <= 1e-12 and entropy_dev <= 1e-9
    report(4, "local-povm-two-bits", ok, f"uniformity dev {worst:.2e}")
    assert worst <= 1e-12
    assert entropy_dev <= 1e-9


def test_05_global_povm_lower_witness():
    eps = 1e-4
    limit = math.log2(12.0)
    thetas = (0.3, 0.8, math.pi / 2)

    def max_entry(theta, epsilon):
        table = adv.ideal_joint(qo.near_y_tetrahedral(epsilon), qo.modified_mercedes(theta), theta)
        return float(table.max())

    bound_ok = True
    floor_ok = True
    witnessed = []
    for theta in thetas:
        m = max_entry(theta, eps)
        witnessed.append(-math.log2(m))
        bound_ok = bound_ok and (m <= 1 / 12 + 10 * eps)
        floor_ok = floor_ok and (-math.log2(m) >= -math.log2(1 / 12 + 10 * eps))
    # first-order convergence: halving the tilt halves the deviation (factor 3)
    ratios = []
    conv_ok = True
    for theta in thetas:
        dev = max_entry(theta, eps) - 1 / 12
        dev_half = max_entry(theta, eps / 2) - 1 / 12
        r = dev / dev_half
        ratios.append(r)
        conv_ok = conv_ok and (2 / 3 <= r <= 6)
    limit_ok = limit >= 3.5849
    ok = bound_ok and floor_ok and conv_ok and limit_ok
    report(
        5,
        "global-povm-lower-witness",
        ok,
        f"witnessed {min(witnessed):.6f} bits at eps={eps:g}, limit {limit:.6f}, "
        f"convergence ratios {['%.3f' % r for r in ratios]}",
    )
    assert bound_ok
    assert floor_ok
    assert conv_ok
    assert limit_ok
    assert min(witnessed) >= 3.5849 - 2e-4  # finite-eps value sits 1.44*eps bits below the limit


def test_06_tomography_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        theta = rng.uniform(0.25, math.pi / 2)
        p = tg.random_extremal_povm(n, rng)
        r = tg.reconstruct_povm(tg.correlations_from_povm(p, theta))
        for a, b in zip(p.elements, r.elements):
            worst = max(worst, float(np.max(np.abs(a - b))))
    det_worst = 0.0
    for theta in qo.theta_grid(20):
        det_worst = max(det_worst, abs(np.linalg.det(tg.eta_matrix(theta)) + math.sin(theta) ** 4))
    ok = worst <= 1e-9 and det_worst <= 1e-12
    report(6, "tomography-round-trip", ok, f"round trip {worst:.2e}, det dev {det_worst:.2e}")
    assert worst <= 1e-9
    assert det_worst <= 1e-12


def test_07_offdiagonal_dichotomy():
    rng = np.random.default_rng(7)
    small_ok = True
    for i in range(50):
        p = tg.random_extremal_povm(2 if i % 2 else 3, rng)
        small_ok = small_ok and tg.offdiag_set(p).null_dimension == 0
    four_ok = True
    for _ in range(50):
        p = tg.random_extremal_povm(4, rng)
        four_ok = four_ok and tg.offdiag_set(p).null_dimension >= 1
    ok = small_ok and four_ok
    report(7, "offdiagonal-dichotomy", ok)
    assert small_ok
    assert four_ok


def test_08_attack_suite():
    thetas = (0.3, 0.7, 1.0, 1.3, math.pi / 2)
    avg_worst = 0.0
    zero_worst = 0.0
    for theta in thetas:
        alice = qo.adjusted_tetrahedral(theta)
        bob = qo.adjusted_tetrahedral(theta)
        attack = adv.build_attack(alice, bob, theta)
        cj = adv.evaluate_attack(attack)
        ideal = adv.ideal_joint(alice, bob, theta)
        avg_worst = max(avg_worst, float(np.max(np.abs(cj.average - ideal))))
        zero_worst = max(zero_worst, float(cj.p_minus[attack.target_pair]))

    rng = np.random.default_rng(31)
    oracle_worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.25, math.pi / 2)
        alice = tg.random_extremal_povm(4, rng)
        bob = tg.random_extremal_povm(4, rng)

        def coeffs(p):
            v = tg.offdiag_set(p).null_basis[0]
            v = v / np.abs(v).max()
            return v * rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))

        lam, mu = coeffs(alice), coeffs(bob)
        attack = adv.AttackModel(
            theta=theta,
            alice=alice,
            bob=bob,
            lambda_coeffs=lam,
            mu_coeffs=mu,
            r_povm=tg.build_dilated_povm(alice, lam),
            s_povm=tg.build_dilated_povm(bob, mu),
            target_pair=(0, 0),
        )
        for sign in (+1, -1):
            closed = adv.closed_form_joint(alice, bob, lam, mu, theta, sign)
            brute = adv.brute_force_joint(attack, theta, sign)
            oracle_worst = max(oracle_worst, float(np.max(np.abs(closed - brute))))

    cap = adv.randomness_cap()
    cap_ok = abs(cap - 3.9527) <= 1e-4 and cap < 4.0
    ok = avg_worst <= 1e-10 and zero_worst <= 1e-10 and oracle_worst <= 1e-10 and cap_ok
    report(
        8,
        "attack-suite",
        ok,
        f"avg dev {avg_worst:.2e}, zero entry {zero_worst:.2e}, "
        f"oracle dev {oracle_worst:.2e}, cap {cap:.6f}",
    )
    assert avg_worst <= 1e-10
    assert zero_worst <= 1e-10
    assert oracle_worst <= 1e-10
    assert cap_ok


def test_09_qubit_reduction():
    theta = 0.8
    rep = adv.qubit_reduction_check(
        qo.adjusted_tetrahedral(theta),
        qo.modified_mercedes(theta),
        theta,
        n_decompositions=10,
        seed=19,
    )
    reduce_ok = rep.max_deviation <= 1e-10

    theta = math.pi / 2
    alice = qo.adjusted_tetrahedral(theta)
    bob = qo.adjusted_tetrahedral(theta)
    rep44 = adv.qubit_reduction_check(alice, bob, theta, n_decompositions=3, seed=23)
    fail_ok = rep44.max_deviation >= 1e-3
    ok = reduce_ok and fail_ok
    report(
        9,
        "qubit-reduction",
        ok,
        f"4x3 dev {rep.max_deviation:.2e}, 4x4 dev {rep44.max_deviation:.2e}",
    )
    assert reduce_ok
    assert fail_ok
