"""Pinned random streams and oracle CSV bytes: SHA-256 digests.

Comparing two runs inside one process cannot see a change to the random
stream, so each configuration below pins the digest of its record: the
summary fields, the level accumulators and every column of the
per-generation rows.  A digest that moves means the simulator now draws
different offspring for the same seed; such a change must be stated and
shown to keep the law (see CHANGES.md).  The level digests were re-pinned
when level functions moved to the exact-law engine, after
``test_exact_law.py`` showed its runs equal in distribution to bit
mutation.  The zeromax and twomax digests were re-pinned again when the
engine's uniform began to run through the window in (fitness, one-count)
order instead of one-count order, which reorders decreasing and two-sided
functions; the other digests held.  The ridge digests were re-pinned, and
only they, when the bit-mutation sampler began to draw a child's flip
positions from its position block and its tie-break uniforms from a block
of its own: the same law (``TestSelectionLaw`` enumerates it), another
stream.  They moved again, and only they, when those three buffers became
draw streams whose blocks start at 64 and are drawn only when needed,
and every flip set of two or more took its positions from the position
stream (no permutation prefix): the first k distinct of i.i.d. uniform
positions are a uniform k-subset, so the law held, and a two-sample test
on the evaluations of 600 runs per selection agreed (BENCH_ridge_stream.json).
They moved a third time, with the ridge run CSV and nothing else, when a
generation whose parent is on the ridge began to draw its selected child
from the exact law with one uniform, as the level engine does:
``test_exact_law.py`` compares ridge runs with per-bit mutation, and
``TestRidgeLaw`` checks the on-ridge draws against enumeration.  They
moved a fourth time, ridge-comma, ridge-plus and the ``run --fn ridge
--n 12`` CSV and nothing else, when ridge generations of RIDGE_LAW_FROM
children or more began to draw from the exact law off the ridge too,
those of fewer than RIDGE_ON_LAW_FROM went back to bit mutation on it,
and an off-ridge child's flip positions came from the list of the
parent's one-bits or zero-bits alone: a two-sample test on the
evaluations of 600 runs per side agreed for each of the three
configurations (BENCH_ridge_off_law.json), and ``TestOffRidgeLaw``
checks the off-ridge law against enumeration.  They moved a fifth time,
ridge-comma, ridge-plus and the ``run --fn ridge --n 12`` CSV and nothing
else, when RIDGE_LAW_FROM fell to 3 children on both sides of the ridge,
the initial string's bits came from uniforms (u < 1/2), and a law-drawn
layout's positions came by rejection from a stream of uniform positions
(shared with bit mutation) or from a partial shuffle of the parent's
one-bits or zero-bits: a two-sample test on the evaluations of 600 runs
per side agreed for each of the three configurations
(BENCH_ridge_law_from3.json), ``TestAmong`` checks the position sets,
and ``TestOffRidgeLaw`` now draws at 3 and 15 children too.  No digest moved when the
run loop (``ea._evolve``) took over the law draw of level generations
and of ridge's on-ridge law generations from a sampler call, since it
reads the same rows with the same uniforms, drawn in the same blocks.

The oracle commands' CSVs are pinned byte for byte as well, written
without the timestamp line, so a change to the CSV writer or to the
oracle's arithmetic cannot pass silently, and so are their printed
summaries.  So is the ratchet figure's CSV, which pins the ratchet
monitor's counts over seeded full-trace runs, and so are the trace CSVs
of ``run`` and the config JSON a batch CSV records.
"""

import hashlib
import json

import numpy as np
import pytest

from onelambda.cli import main
from onelambda.ea import (
    AlgorithmKind,
    ControllerParams,
    StopCause,
    StoppingCondition,
    default_static_lambda,
    run,
)
from onelambda.experiments import BatchConfig
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
    # ridge runs on its own sampler: bit mutation below RIDGE_LAW_FROM children,
    # the exact law from there on
    ("ridge-comma", COMMA, "ridge", 30, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 29, 1.0, StopCause.OPTIMUM,
     "dfc981645ff576773e72f19605e79c0a57f8c1be9a35b492c1dba6cda0d6ab29"),
    ("ridge-plus", PLUS, "ridge", 30, 1.5, 1.0,
     StoppingCondition(max_generations=20_000), 31, 1.0, StopCause.OPTIMUM,
     "318a0767d46a28a45cad44bdad90c4e6fce14995051951a2198afc487eb1dc6f"),
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


# (argv, SHA-256 of the CSV the command writes with --no-timestamp, its
# stdout JSON without the "output" path)
CSV_CASES = [
    ("drift-check --potential g1 --n 60",
     "97d4a9014eace29178531bd67af46ec7cf05906be8b68d4193ad197e869b5a38",
     '{"potential": "g1", "states": 4020, "extreme_drift": 0.29910796346054525, '
     '"extreme_state": [59, 366.96804684197105], "violations": 0, "band_empty": false}'),
    ("drift-check --potential g2 --n 1000 --s 18",
     "0560baf1bb2bd7e8257160fa72a676ab4e7ff06281a0a4c0e4724ab50f06700b",
     '{"potential": "g2", "states": 109, "extreme_drift": -0.2262499553618309, '
     '"extreme_state": [847, 1.5], "violations": 0, "band_empty": false}'),
    ("bounds-check --n 40 --lambdas 1,2,3,5,8",
     "051ce51b418bdcd22ed16ebbf2e90f89aaeb1885f836ee72a989a943fb3d13ee",
     '{"n": 40, "states": 200, "checks": 2020, "violations": 0}'),
    # the oracle-cli benchmark's sizes, each over many law blocks of levels
    ("bounds-check --n 200 --lambdas " + ",".join(map(str, range(1, 25))),
     "7030466f7750be16ede430ad188cb76109f2006f8015ec5e61e96d55d3a225e5",
     '{"n": 200, "states": 4800, "checks": 50803, "violations": 0}'),
    ("drift-check --n 400 --s 0.5",
     "72cc805faf41ca8306932368d24d4ef892b6733c8aa8634b91ea7201b10ec48d",
     '{"potential": "g1", "states": 26800, "extreme_drift": 0.29832078840008125, '
     '"extreme_state": [399, 2446.4536456131405], "violations": 0, "band_empty": false}'),
]


@pytest.mark.parametrize("argv, digest, summary", CSV_CASES, ids=[case[0] for case in CSV_CASES])
def test_oracle_csv_digest_pinned(argv, digest, summary, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv.split(), "--no-timestamp", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed.pop("output") == str(out)
    assert json.dumps(printed) == summary  # values and key order
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_ratchet_csv_digest_pinned(tmp_path, capsys):
    # ``figure`` writes under --out-dir, so it has its own harness
    argv = ["figure", "ratchet", "--seed", "3", "--workers", "1", "--no-timestamp",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "ratchet_report.csv").read_bytes()).hexdigest()
    assert digest == "2d6b3d5044911910b64495794d47b5adfbfd91dd80e8dba0e4faea6ec8947915"


# (argv, SHA-256 of the trace CSV ``run`` writes with --no-timestamp):
# half-integer cliff fitness, a lambda_int past int64 after a lambda abort,
# a ridge run, and one summary trace
RUN_CSV_CASES = [
    ("run --fn cliff:7 --n 20 --s 1 --trace full",
     "07ffc02620a21b0dd2153fc06c55e90c7cd5a98ae8193c1adcfe60319896e0b8"),
    ("run --n 10 --s 1 --F 1e30 --eval-cap 100 --trace full",
     "89a75e383b1532e85d0e91266f65e813d7095501eb0607345401e0e3387c1ed3"),
    ("run --fn ridge --n 12 --s 1 --trace full",
     "937df8c2a10385158fd715b751ab4e5899159b687638a23781d3702544bf260b"),
    ("run --fn cliff:7 --n 20 --s 1",
     "62f90ca5841b49fc9cecfd9c21e63e9f857125f37626a4c56ac67f510ffcd2fd"),
]


@pytest.mark.parametrize("argv, digest", RUN_CSV_CASES, ids=[case[0] for case in RUN_CSV_CASES])
def test_run_csv_digest_pinned(argv, digest, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv.split(), "--no-timestamp", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_batch_config_json_pinned():
    # every field away from its default, as write_csv's "# config:" line holds it
    config = BatchConfig(
        algorithm="static", fn_spec="cliff:3", n_values=(10, 20),
        fs_values=((2.0, 0.5), (1.5, 3.4)), runs=3, master_seed=7, gen_cap_multiplier=250.0,
        eval_cap=1000, stop_on_optimum=False, trace_level="full", lambda0=2.5, static_lambda=4,
    )
    text = json.dumps(config.to_dict(), sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "34bf7e890adf36e3e768344950753f509cfa13834a05848673131b4574ee9c9d")
