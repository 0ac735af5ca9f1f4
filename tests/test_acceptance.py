"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints a PASS/FAIL line through the conftest summary hook.  The
exact-math criteria (1-6) are deterministic; the simulation criteria
(7-12) are seeded and sized per the experiment plan, with tolerances wide
enough for Monte Carlo noise at those sizes.
"""

import math

import numpy as np

from conftest import record_criterion, workers
from test_oracle import brute_force_drift, keep

from onelambda.ea import (
    ControllerParams,
    StopCause,
    _offspring_sampler,
    round_lambda,
    update_lambda,
)
from onelambda.experiments import BatchConfig, run_batch, run_figure
from onelambda.fitness import FitnessFunction
from onelambda.oracle import (
    BOUND_COLUMNS,
    DRIFT_COLUMNS,
    _child_masses,
    check_transition_bounds,
    drift_claim,
    drift_grid_check,
    elitist_evaluations_bound,
    make_potential,
    selected_child_law,
)

MASTER = 20250809
GRID_N = (2, 10, 50, 163, 500)


def test_c01_distribution_normalization():
    worst = 0.0
    for n in GRID_N:
        # one child's masses, before the log CDF puts any deficit on the lowest fitness
        sums = _child_masses(n, np.arange(n + 1)).sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
        onemax = FitnessFunction("onemax", n)
        for i in range(n + 1):
            # one row per lam; lam = 1 is the one-offspring law
            _, rows = selected_child_law(onemax, i, range(1, 65))
            worst = max(worst, float(np.abs(rows.sum(axis=-1) - 1.0).max()))
    ok = worst <= 1e-12
    record_criterion("C1", "distribution normalization on the full grid",
                     ok, f"worst |sum-1| = {worst:.2e}")
    assert ok


def test_c02_drift_oracle_vs_joint_enumeration():
    worst = 0.0
    for n in range(2, 7):
        params = ControllerParams(F=1.5, s=0.5)
        pots = (make_potential("g1", F=1.5, s=0.5, n=n), make_potential("g2", F=1.5))
        states = [(i, lam_real) for i in range(n) for lam_real in (1.0, 1.5, 2.0, 2.49, 2.5, 3.0)]
        for pot in pots:
            report = drift_grid_check(pot, params, n, states, 0.0, "min_at_least", write=keep)
            for (i, lam_real), row in zip(states, report.rows):
                want = brute_force_drift(n, i, lam_real, pot, params)
                worst = max(worst, abs(dict(zip(DRIFT_COLUMNS, row))["drift"] - want))
    ok = worst <= 1e-9
    record_criterion("C2", "exact drift vs joint mask enumeration (n<=6, lam<=3)",
                     ok, f"worst |diff| = {worst:.2e}")
    assert ok


def test_c03_sandwich_bounds_zero_violations():
    total_checks = 0
    violations = []
    checked = set()  # the names of the bounds checked somewhere on the grid
    name = BOUND_COLUMNS.index("bound")

    def scan(report):  # the rows stream past, as into the CLI's CSV
        for row in report.rows:
            checked.add(row[name])
            if not row[-1]:
                violations.append(row)

    for n in GRID_N:
        report = check_transition_bounds(n, lambdas=range(1, 65), write=scan)
        total_checks += report.checks_performed
    ok = not violations and {"p_plus_upper_hard_band", "delta_plus_upper_log"} <= checked
    record_criterion("C3", "transition-quantity sandwich bounds on the full grid",
                     ok, f"{total_checks} checks, {len(violations)} violations")
    assert ok, violations[:5]


def test_c04_controller_identities():
    rounding = [round_lambda(x) for x in (1.0, 1.49, 1.5, 2.5, 2.49)]
    ok = rounding == [1, 1, 2, 3, 2]
    # s failures + 1 success returns lambda within 1e-9 relative
    for F, s in ((1.5, 1), (1.5, 7), (2.0, 3), (1.1, 25)):
        p = ControllerParams(F=float(F), s=float(s))
        lam = lam0 = 7.3
        for _ in range(s):
            lam = update_lambda(lam, False, p)
        lam = update_lambda(lam, True, p)
        ok = ok and abs(lam - lam0) / lam0 < 1e-9
    ok = ok and update_lambda(1.0, True, ControllerParams(F=5.0, s=1.0)) == 1.0
    record_criterion("C4", "controller rounding, equilibrium and clamp identities", ok)
    assert ok


def test_c05_positive_drift_floor_g1():
    n, F, s = 1000, 1.5, 0.5
    params = ControllerParams(F=F, s=s)
    pot, states, floor, direction = drift_claim("g1", n, F, s)  # floor 0.09197
    plain = drift_grid_check(pot, params, n, states, floor, direction, write=keep)
    capped = drift_grid_check(pot, params, n, states, floor, direction, write=keep,
                              cap_gain_at_one=True)
    # capped-only violations are reported; the gate is the uncapped variant
    ok = plain.ok
    detail = (
        f"{plain.states_checked} states; min drift {plain.extreme:.5f} at {plain.extreme_state}, "
        f"capped min {capped.extreme:.5f}; floor {floor:.5f}; "
        f"violations plain={plain.violations} capped={capped.violations}"
    )
    record_criterion("C5", "positive drift floor for the penalty potential (n=1000)", ok, detail)
    assert ok, [row for row in plain.rows if not row[-1]][:5]


def test_c06_negative_drift_band_g2():
    n, F, s = 1000, 1.5, 18.0
    pot, states, ceiling, direction = drift_claim("g2", n, F, s)
    report = drift_grid_check(pot, ControllerParams(F=F, s=s), n, states, ceiling, direction,
                              write=keep)
    ok = report.ok  # empty band would not be a pass
    record_criterion(
        "C6", "negative drift across the stagnation band (n=1000, s=18)", ok,
        f"{report.states_checked} in-band states; max drift {report.extreme:.5f} "
        f"at {report.extreme_state}",
    )
    assert ok, [row for row in report.rows if not row[-1]][:5]


def _algorithm(label):
    """comma, plus or static from a run record's algorithm label."""
    return "static" if label.startswith("static") else label.removeprefix("sa-")


def test_c07_runtime_comparison():
    rows, _ = run_figure("fig2", MASTER + 7, workers=workers())
    stats = {"comma": {}, "plus": {}, "static": {}}
    for row in rows:
        stats[_algorithm(row["algorithm"])][row["n"]] = row
    ns = sorted(stats["comma"])
    comma_all_opt = all(s["censored"] == 0 for s in stats["comma"].values())
    scale_ratio = stats["comma"][ns[-1]]["median"] / stats["comma"][ns[0]]["median"]
    scale_ok = 0.5 <= scale_ratio <= 2.0
    static_ok = True
    plus_ok = True
    details = [f"scaling median ratio n={ns[-1]}/n={ns[0]} = {scale_ratio:.3f}"]
    for n in ns:
        cm, st, pl = (stats[a][n]["median"] for a in ("comma", "static", "plus"))
        static_ok = static_ok and (st < cm) and (cm / st <= 3.0)
        ratio = max(cm, pl) / min(cm, pl)
        plus_ok = plus_ok and ratio <= 1.25
        details.append(f"n={n}: comma {cm:.2f} plus {pl:.2f} static {st:.2f}")
    ok = comma_all_opt and scale_ok and static_ok and plus_ok
    record_criterion(
        "C7", "runtime comparison vs baselines (200 runs, 4 sizes)", ok,
        "; ".join(details),
    )
    assert comma_all_opt and scale_ok and static_ok and plus_ok, details


def test_c08_success_rate_threshold():
    rows, _ = run_figure("fig3", MASTER + 3, workers=workers())
    by_s = {r["s"]: r for r in rows}
    low_ok = all(by_s[s]["reached_optimum"] >= 99 for s in (0.5, 1.0))
    high_ok = by_s[20.0]["capped"] >= 95
    means = [by_s[s]["mean_generations_over_n"] for s in (2.0, 5.0, 10.0, 20.0)]
    mono_ok = all(b >= a for a, b in zip(means, means[1:])) and means[-1] > means[0]
    ok = low_ok and high_ok and mono_ok
    record_criterion(
        "C8", "success-rate sweep: efficient vs exponential regimes (n=100)", ok,
        f"optimum@s<=1: {[by_s[s]['reached_optimum'] for s in (0.5, 1.0)]}; "
        f"capped@s=20: {by_s[20.0]['capped']}; means s=2..20: "
        + ", ".join(f"{m:.1f}" for m in means),
    )
    assert ok


def test_c09_evaluation_histogram_modes():
    rows, _ = run_figure("fig6", MASTER + 4, workers=workers())
    modes = {
        s: max((r for r in rows if r["s"] == s), key=lambda r: r["share_pct"])["fitness"]
        for s in {r["s"] for r in rows}
    }
    ok = 40 <= modes[20.0] <= 60 and modes[1.0] >= 90
    record_criterion(
        "C9", "evaluation-share histogram modes (n=100, 1.5M-eval cap)", ok,
        f"mode@s=20: {modes[20.0]}; mode@s=1: {modes[1.0]}",
    )
    assert ok


def test_c10_elitist_evaluation_bound():
    details = []
    ok = True
    for n in (100, 500):
        config = BatchConfig(
            algorithm="plus", fn_spec="onemax", n_values=(n,), fs_values=((1.5, 1.0),),
            runs=200, master_seed=MASTER + 5, gen_cap_multiplier=None,
            eval_cap=None, stop_on_optimum=True,
        )
        batch = run_batch(config, workers=workers())
        recs = batch.cells[0].records
        assert all(r.stop_cause == StopCause.OPTIMUM for r in recs)
        evals = np.array([r.evaluations for r in recs], dtype=float)
        bounds = np.array(
            [elitist_evaluations_bound(n, int(r.initial_fitness), n, 1.5, 1.0, 1.0)
             for r in recs]
        )
        sem = evals.std(ddof=1) / math.sqrt(evals.size)
        this_ok = evals.mean() <= bounds.mean() + 2 * sem
        ok = ok and this_ok
        details.append(
            f"n={n}: mean evals {evals.mean():.0f} vs bound {bounds.mean():.0f} (+2se {2*sem:.0f})"
        )
    record_criterion("C10", "elitist runs stay under the closed-form bound", ok,
                     "; ".join(details))
    assert ok


def test_c11_mutation_distribution():
    # single mutants from the bit-mutation sampler run() uses on ridge: at
    # lambda 1 its one child is the mutant, returned as its flipped positions
    n = 100
    rng = np.random.default_rng(MASTER + 6)
    parent = rng.integers(0, 2, size=n).tolist()
    fn = FitnessFunction("ridge", n)
    sample = _offspring_sampler(fn, parent, rng)
    ones = sum(parent)
    f = fn.raw_from_bits(parent, ones)
    trials = 1_000_000
    total = 0
    zero = 0
    for _ in range(trials):
        _, _, flips = sample(1, ones, f)
        h = 0 if flips is None else 1 if type(flips) is int else len(set(flips))
        total += h
        zero += h == 0
    mean = total / trials
    zero_frac = zero / trials
    expect_zero = (1.0 - 1.0 / n) ** n
    ok = 0.99 <= mean <= 1.01 and abs(zero_frac - expect_zero) <= 0.003
    record_criterion(
        "C11", "standard bit mutation statistics (1e6 samples)", ok,
        f"mean flips {mean:.4f}; zero-flip {zero_frac:.4f} vs {expect_zero:.4f}",
    )
    assert ok


def test_c12_ratchet_monitors():
    rows, _ = run_figure("ratchet", MASTER + 7, workers=workers())
    row = next(r for r in rows if r["r"] == 10.0)
    clean = row["runs_without_gap_violation"]
    drops, eligible = row["fitness_drops_at_large_lambda"], row["eligible_generations"]
    clean_ok = clean >= 99
    drop_ok = (drops / eligible if eligible else 0.0) <= 10.0 / row["n"] ** 2
    ok = clean_ok and drop_ok
    record_criterion(
        "C12", "ratchet monitors: best-so-far gap and large-lambda drops", ok,
        f"clean runs {clean}/100; drops {drops}/{eligible} eligible",
    )
    assert ok
