"""Pinned random streams: SHA-256 digests of full-trace run records.

Comparing two runs inside one process cannot see a change to the random
stream, so each configuration below pins the digest of its record: the
summary fields, the level accumulators and every column of the
per-generation rows.  A digest that moves means the simulator now draws
different offspring for the same seed; such a change must be stated and
shown to keep the law (see CHANGES.md).  The level digests were re-pinned
when level functions moved to the exact-law engine, after
``test_exact_law.py`` showed its runs equal in distribution to bit
mutation; the ridge digests predate that move and still hold.  The
zeromax and twomax digests were re-pinned again when the engine's uniform
began to run through the window in (fitness, one-count) order instead of
one-count order, which reorders decreasing and two-sided functions; the
other digests held.
"""

import hashlib

import numpy as np
import pytest

from onelambda.ea import (
    AlgorithmKind,
    ControllerParams,
    StopCause,
    StoppingCondition,
    default_static_lambda,
    run,
)
from onelambda.fitness import FitnessFunction

COMMA = AlgorithmKind.self_adjusting_comma()
PLUS = AlgorithmKind.self_adjusting_plus()


def record_digest(rec) -> str:
    h = hashlib.sha256()
    summary = (
        rec.algorithm, rec.fn_spec, rec.n, rec.F, rec.s, rec.lambda0, rec.seed_key,
        rec.stop_cause.value, rec.generations, rec.evaluations, rec.initial_fitness,
        rec.final_fitness, rec.best_fitness, rec.final_lambda,
    )
    h.update(repr(summary).encode())
    # "evals_at" hashes lambda_sum_at again: the digests were pinned while
    # records carried an evals_at field, which always equalled lambda_sum_at
    for name, attr in (("first_hit_evals", "first_hit_evals"), ("gens_at", "gens_at"),
                       ("lambda_sum_at", "lambda_sum_at"), ("evals_at", "lambda_sum_at")):
        h.update(name.encode())
        h.update(getattr(rec, attr).astype("<i8").tobytes())
    for key in sorted(rec.rows):
        col = rec.rows[key]
        h.update(key.encode())
        h.update(col.astype("<f8" if col.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


# (id, kind, fn spec, n, F, s, stop, seed, lambda0, expected cause, digest)
CASES = [
    ("onemax-comma", COMMA, "onemax", 60, 1.5, 1.0,
     StoppingCondition(max_generations=500 * 60), 42, 1.0, StopCause.OPTIMUM,
     "ef4af3e0f075d7af9005487ff8e02e6a4d3bc31588c4bcf7a00c81ca515236b8"),
    ("onemax-plus", PLUS, "onemax", 60, 1.5, 1.0,
     StoppingCondition(max_generations=500 * 60), 7, 1.0, StopCause.OPTIMUM,
     "95b625a428513c4f71f337c396cb4ae0f1b296b93fb3b6b1388efdf21cbd578f"),
    ("onemax-static", AlgorithmKind.static_comma(6), "onemax", 60, 1.5, 1.0,
     StoppingCondition(max_generations=500 * 60), 3, 1.0, StopCause.OPTIMUM,
     "08b78f74e2233a059098deb916fbe72e6691d980c3ae73770948b547b292ed5d"),
    ("zeromax-comma-lambda0", COMMA, "zeromax", 40, 2.0, 0.5,
     StoppingCondition(max_generations=20_000), 5, 3.7, StopCause.OPTIMUM,
     "1fab2eaad20777747a4c000e96932fac5000156d429f8ee9a9b66817fd6a03c5"),
    ("twomax-static", AlgorithmKind.static_comma(default_static_lambda(40)), "twomax", 40,
     1.5, 1.0, StoppingCondition(max_generations=20_000), 11, 1.0, StopCause.OPTIMUM,
     "32026ef46773afb6caa53b1f68640f4d3237a5edf1d79545b76ddf7931f15c76"),
    ("twomax-plus", PLUS, "twomax", 40, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 12, 1.0, StopCause.OPTIMUM,
     "2288c296d9ea2ff4b6da163b950e9e554a417fda373f025ce4fcd8ac10123c81"),
    ("jump3-comma", COMMA, "jump:3", 20, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 13, 1.0, StopCause.OPTIMUM,
     "d3f1bab9cf600ba383253611fade23309d8cb65ad3ef59c97f6b29c458d5b8e4"),
    ("cliff13-comma", COMMA, "cliff:13", 40, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 17, 1.0, StopCause.OPTIMUM,
     "731733f42ff06689e1d24193ab5fe16f191fca3e98a407ae5b4b5851ecd2b49d"),
    ("onemax-eval-cap", COMMA, "onemax", 100, 1.5, 20.0,
     StoppingCondition(max_evaluations=20_000, stop_on_optimum=False),
     np.random.SeedSequence(20250809, spawn_key=(0, 1)), 1.0, StopCause.EVALUATION_CAP,
     "909d695ef9088b9ce1df079ad25927649c519909406ea6474322286e8ffee093"),
    ("jump4-lambda-abort", COMMA, "jump:4", 24, 1.5, 1.0,
     StoppingCondition(max_generations=20_000, lambda_abort_threshold=300.0), 19, 1.0,
     StopCause.LAMBDA_ABORT,
     "689e894a6f607f174aceec5d5aa3cd1a2b84841612991922d9a68b20ba33eb50"),
    ("onemax-gen-cap-plus", PLUS, "onemax", 200, 1.5, 1.0,
     StoppingCondition(max_generations=150), 23, 2.0, StopCause.GENERATION_CAP,
     "7959bccf924d85905433fbff5ea18df6cc07e268084b10a63c144d430f077f6c"),
    # ridge runs on the bit-mutation sampler, pinned when ridge moved onto it
    ("ridge-comma", COMMA, "ridge", 30, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 29, 1.0, StopCause.OPTIMUM,
     "614f6cfe68c0c4abcc069bdd750165777f8770c753d67f0cbd13907346d77099"),
    ("ridge-plus", PLUS, "ridge", 30, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 31, 1.0, StopCause.OPTIMUM,
     "1a0683f1ba363f0d99167066cad8b1133c8300b3c09af7e21e96cd63423370ea"),
]


@pytest.mark.parametrize(
    "kind, spec, n, F, s, stop, seed, lambda0, cause, digest",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_full_trace_digest_pinned(kind, spec, n, F, s, stop, seed, lambda0, cause, digest):
    rec = run(kind, FitnessFunction.parse(spec, n), ControllerParams(F=F, s=s), stop, seed,
              trace_level="full", lambda0=lambda0)
    assert rec.stop_cause == cause
    assert record_digest(rec) == digest
