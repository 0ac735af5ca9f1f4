"""Pinned random streams: SHA-256 digests of full-trace run records.

Comparing two runs inside one process cannot see a change to the random
stream, so each configuration below pins the digest of its record: the
summary fields, the level accumulators and every column of the
per-generation rows.  A digest that moves means the simulator now draws
different offspring for the same seed; such a change must be stated and
shown to keep the law (see CHANGES.md).
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
     "89e12773c0a9bf794290b3b7863aca5deb7cc2b6af589c9754659a8796c74ce8"),
    ("onemax-plus", PLUS, "onemax", 60, 1.5, 1.0,
     StoppingCondition(max_generations=500 * 60), 7, 1.0, StopCause.OPTIMUM,
     "d323f944c9bcc4d86075abed431cd9893411166a43f4b70616aedf48a6fdae5b"),
    ("onemax-static", AlgorithmKind.static_comma(6), "onemax", 60, 1.5, 1.0,
     StoppingCondition(max_generations=500 * 60), 3, 1.0, StopCause.OPTIMUM,
     "fa407d882f9037c453e02c3df0e590063283c6f2bb53a4f895b97a93c8014b60"),
    ("zeromax-comma-lambda0", COMMA, "zeromax", 40, 2.0, 0.5,
     StoppingCondition(max_generations=20_000), 5, 3.7, StopCause.OPTIMUM,
     "98011d603d47aee6a4cc7b0b9c272e429b04949d37da7a361fb3a43c02a4854f"),
    ("twomax-static", AlgorithmKind.static_comma(default_static_lambda(40)), "twomax", 40,
     1.5, 1.0, StoppingCondition(max_generations=20_000), 11, 1.0, StopCause.OPTIMUM,
     "5a1df6b2067f9905e692456e0a27ef87ed13fbce709b5aa73420abbf2be1daac"),
    ("twomax-plus", PLUS, "twomax", 40, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 12, 1.0, StopCause.OPTIMUM,
     "4c1c9d8a79f566e7341870df76ca606d9ecc1848d8b7ddb70069363715631409"),
    ("jump3-comma", COMMA, "jump:3", 20, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 13, 1.0, StopCause.OPTIMUM,
     "023850f9c71770cd157940899eb9b1e74d3c9e70992f8585883a2752754b09cf"),
    ("cliff13-comma", COMMA, "cliff:13", 40, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 17, 1.0, StopCause.OPTIMUM,
     "819bed1c7571b56465736f3e0a66a7dabe321ee77b17ecc4d523c89a817f0d00"),
    ("onemax-eval-cap", COMMA, "onemax", 100, 1.5, 20.0,
     StoppingCondition(max_evaluations=20_000, stop_on_optimum=False),
     np.random.SeedSequence(20250809, spawn_key=(0, 1)), 1.0, StopCause.EVALUATION_CAP,
     "d190e954e63c5eb7569de30e5e072ba232333ee007dde6094035cf7548d28c6a"),
    ("jump4-lambda-abort", COMMA, "jump:4", 24, 1.5, 1.0,
     StoppingCondition(max_generations=20_000, lambda_abort_threshold=300.0), 19, 1.0,
     StopCause.LAMBDA_ABORT,
     "9a09e5b4cd0d037ffd711a4baaf5aa14ed57144333d96831d87b868a6769f2fd"),
    ("onemax-gen-cap-plus", PLUS, "onemax", 200, 1.5, 1.0,
     StoppingCondition(max_generations=150), 23, 2.0, StopCause.GENERATION_CAP,
     "5a8bea6b0093d1b172925550fbe2e08713ac8d3eb008ef9999c9c7ba974b790b"),
    # ridge draws from the same sampler as the level functions; these two
    # were pinned when ridge moved onto it (its stream changed then)
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
