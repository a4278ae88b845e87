"""Seeded op mixes of the three benchmark workloads.

The seed is the only input: it draws each op's program, scale, lifeguard
and technique stack (and, for ``gateway_upload``, the arrival times).  The
program under test receives only the generated programs and traces.

Each closed-loop workload's ops form *rounds*: stratified draws that
visit every stratum (a lifeguard/technique-stack pair, or a program) once,
in a seeded order.  A timed run measures its rounds in turn, a *pass*,
and repeats the pass until the run's time is up.

* ``live_monitor``: a calibration round drawn from a fixed seed, then
  ``SEEDED_LIVE_ROUNDS`` rounds drawn from the run's seed.
* ``capture_replay``: a seeded Latin square, whose rounds together run
  every program at every scale once.

So the work whose simulated figures a run reports (its first
``CALIBRATION_ROUNDS``) is the same for every seed, and the rest of the
mix differs between seeds only by the draws inside each stratum -- which
keeps run-to-run spread low without fixing the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.harness import TECHNIQUE_STACKS
from repro.experiments.runner import REPLAY_LIFEGUARDS
from repro.lifeguards import LockSet
from repro.workloads.base import workload_names

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed reserved for confirming a claimed gain; never tune on it.
HELD_OUT_SEED = 7919

#: Workload scales drawn per op, spanning below and above the reduced
#: input (scale 1.0).
SCALES = (0.5, 0.75, 1.0, 1.25)

#: Seeded ``live_monitor`` rounds after the calibration round.
SEEDED_LIVE_ROUNDS = 2
#: Leading rounds of a pass that hold the same ops for every seed (in
#: another order for ``capture_replay``); the simulated figures are theirs.
CALIBRATION_ROUNDS = {"live_monitor": 1, "capture_replay": len(SCALES)}

SPEC_PROGRAMS = tuple(workload_names(multithreaded=False))
MT_PROGRAMS = tuple(workload_names(multithreaded=True))


#: Open-loop arrival rate of ``gateway_upload`` sessions (per second),
#: well below the default gateway's capacity on two CPUs.
GATEWAY_RATE = 0.5
#: Distinct traces captured at ``gateway_upload`` set-up.
GATEWAY_TRACES = 6


def stack_suffix(label: str) -> str:
    """Metric suffix of a Figure-11 stack label: ``LMA+IT+IF`` -> ``lma_it_if``."""
    return label.lower().replace("+", "_")


@dataclass(frozen=True)
class LiveOp:
    """One live ``LBASystem.run``."""

    program: str
    scale: float
    lifeguard: str
    stack: str
    lma: bool
    it: bool
    idempotent_filter: bool

    @property
    def key(self) -> Tuple:
        return (self.program, self.scale, self.lifeguard, self.stack)


@dataclass(frozen=True)
class CaptureReplayOp:
    """One ``capture_trace`` followed by ``replay_trace`` per lifeguard."""

    program: str
    scale: float
    lifeguards: Tuple[str, ...]

    @property
    def key(self) -> Tuple:
        return (self.program, self.scale)


@dataclass(frozen=True)
class GatewaySession:
    """One gateway upload, due ``due_s`` after the schedule starts."""

    index: int
    due_s: float
    trace: int
    lifeguard: str


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def replay_lifeguards(program: str) -> Tuple[str, ...]:
    """The runner's replay set for a program (LockSet for multithreaded ones)."""
    return (LockSet.name,) if program in MT_PROGRAMS else tuple(REPLAY_LIFEGUARDS)


def balanced(rng: random.Random, choices: Sequence, count: int) -> List:
    """``count`` draws that use every choice equally often (up to one), shuffled."""
    draws = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(draws)
    return draws


def _live_round(rng: random.Random) -> List[LiveOp]:
    """Every (lifeguard, Figure-11 stack) pair once.

    ``rng`` pairs each with a program and a scale; every program of a
    suite and every scale appears about equally often in a round.
    """
    strata = [
        (lifeguard, stack)
        for lifeguard, stacks in TECHNIQUE_STACKS.items() for stack in stacks
    ]
    spec = iter(balanced(rng, rng.sample(SPEC_PROGRAMS, len(SPEC_PROGRAMS)),
                         sum(lg != LockSet.name for lg, _stack in strata)))
    mt = iter(balanced(rng, rng.sample(MT_PROGRAMS, len(MT_PROGRAMS)),
                       sum(lg == LockSet.name for lg, _stack in strata)))
    scales = iter(balanced(rng, SCALES, len(strata)))
    ops = [
        LiveOp(
            program=next(mt if lifeguard == LockSet.name else spec),
            scale=next(scales), lifeguard=lifeguard, stack=label,
            lma=lma, it=it, idempotent_filter=idempotent_filter,
        )
        for lifeguard, (label, lma, it, idempotent_filter) in strata
    ]
    rng.shuffle(ops)
    return ops


def live_rounds(seed: int) -> List[List[LiveOp]]:
    """The calibration round, then ``SEEDED_LIVE_ROUNDS`` rounds drawn from ``seed``.

    The calibration round is drawn from a fixed seed, so every run
    measures it: it is what ``sim_cycles_per_record`` is taken over.
    """
    rng = _rng("live_monitor", seed)
    return [_live_round(_rng("live_monitor", "calibration"))] + [
        _live_round(rng) for _ in range(SEEDED_LIVE_ROUNDS)
    ]


def capture_replay_rounds(seed: int) -> List[List[CaptureReplayOp]]:
    """One round per scale, each every program once: a seeded Latin square.

    The seed gives each program a first scale (every scale to a quarter
    of the programs) and shuffles each round; round ``r`` moves every
    program ``r`` scales on.  So each round deals the scales out evenly,
    and the rounds together run every program at every scale once.
    """
    rng = _rng("capture_replay", seed)
    programs = SPEC_PROGRAMS + MT_PROGRAMS
    first = balanced(rng, range(len(SCALES)), len(programs))
    rounds = []
    for shift in range(len(SCALES)):
        ops = [
            CaptureReplayOp(program, SCALES[(start + shift) % len(SCALES)],
                            replay_lifeguards(program))
            for program, start in zip(programs, first)
        ]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def gateway_traces(seed: int) -> List[Tuple[str, float]]:
    """The (program, scale) pairs captured at ``gateway_upload`` set-up."""
    rng = _rng("gateway_upload/traces", seed)
    programs = rng.sample(SPEC_PROGRAMS, GATEWAY_TRACES - 1) + [rng.choice(MT_PROGRAMS)]
    return [(program, rng.choice(SCALES)) for program in programs]


def gateway_schedule(seed: int, seconds: float) -> List[GatewaySession]:
    """Poisson arrivals at ``GATEWAY_RATE`` over ``seconds`` (at least one session).

    Each session draws one of the seed's traces and a lifeguard of that
    trace's replay set.
    """
    traces = gateway_traces(seed)
    rng = _rng("gateway_upload/schedule", seed)
    sessions = []
    due = rng.expovariate(GATEWAY_RATE)
    while due < seconds or not sessions:
        trace = rng.randrange(len(traces))
        lifeguard = rng.choice(replay_lifeguards(traces[trace][0]))
        sessions.append(GatewaySession(len(sessions), due, trace, lifeguard))
        due += rng.expovariate(GATEWAY_RATE)
    return sessions


def warmup_live_op() -> LiveOp:
    """Fixed, seed-independent set-up op (loads every live-path module)."""
    return LiveOp("gzip", 0.5, "MemCheck", "LMA+IT+IF", True, True, True)


def warmup_capture_replay_op() -> CaptureReplayOp:
    """Fixed, seed-independent set-up op (loads the codec and replay tiers)."""
    return CaptureReplayOp("gzip", 0.5, tuple(REPLAY_LIFEGUARDS))
