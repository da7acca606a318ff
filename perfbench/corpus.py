"""The ``rescore`` corpus: seeded episode logs written without altlab.

Random-play logs are drawn in closed form: on a two-cell track an agent's
arrival time is 2 plus a negative-binomial(2, 1/2) count of Stay draws, the
episode ends at the earliest arrival, and every agent arriving then ties.
Rotation logs have scores known exactly (see ``scorer.rotation_expected``).
Files follow the ``log.jsonl`` record format documented in altlab's README,
produced by the writer below, so a change to altlab's own writer or
in-memory log type leaves these inputs byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scorer

AGENT_COUNTS = (2, 5, 10)
# Many short logs and one long one.  The short logs give the per-call
# percentiles enough samples; their lengths grow geometrically, so that
# calls of neighbouring rank differ little in cost and a percentile does
# not jump between two size classes.  The 100k-episode n = 10 log sets
# peak RSS.
RANDOM_LENGTHS = tuple(round(2_000 * 5 ** (i / 7)) for i in range(8))  # 2k .. 10k
LONG_LOG = (10, 100_000)
PERFECT_ROTATION_LENGTH = 2_000
PARTIAL_ROTATION_LENGTH = 3_000
PATH_LENGTH = 2
STEP_CAP = 1000
R_HIGH = 100.0
SCHEME = "ilf"


@dataclass(frozen=True)
class Log:
    """One corpus file and the arrivals it was generated from."""

    name: str
    n: int
    arrivals: np.ndarray
    steps: np.ndarray
    rotating: int | None = None  # x for a rotation log of x agents, else None


def random_play(rng: np.random.Generator, nu: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrival matrix and step counts of ``nu`` uniform-random episodes."""
    times = PATH_LENGTH + rng.negative_binomial(PATH_LENGTH, 0.5, size=(nu, n))
    first = times.min(axis=1)
    arrivals = times == first[:, None]
    capped = first > STEP_CAP
    arrivals[capped] = False
    return arrivals, np.minimum(first, STEP_CAP)


def build(seed: int) -> list[Log]:
    """Every corpus log, drawn from ``seed`` alone."""
    rng = np.random.default_rng([seed, 0xA17])
    logs = []
    for n in AGENT_COUNTS:
        for nu in RANDOM_LENGTHS:
            logs.append(Log(f"random-n{n}-{nu}", n, *random_play(rng, nu, n)))
        for nu, x in ((PERFECT_ROTATION_LENGTH, n), (PARTIAL_ROTATION_LENGTH, max(1, n // 2))):
            logs.append(
                Log(f"rotation-n{n}-x{x}-{nu}", n, scorer.rotation(nu, n, x),
                    np.full(nu, PATH_LENGTH), rotating=x)
            )
    n, nu = LONG_LOG
    logs.append(Log(f"random-n{n}-{nu}", n, *random_play(rng, nu, n)))
    return logs


def _body(ids: tuple[int, ...], n: int) -> str:
    """Record fields fixed by the arrival set: winner and rewards."""
    payoff = float(scorer.reward_per_arriver(np.array([len(ids)]), n, R_HIGH, SCHEME)[0])
    rewards = [payoff if i in ids else 0.0 for i in range(n)]
    winner = str(ids[0]) if len(ids) == 1 else "null"
    return (
        f'"arrivals":[{",".join(map(str, ids))}],"exclusive_winner":{winner},'
        f'"rewards":[{",".join(map(repr, rewards))}]'
    )


def write(log: Log, path: Path) -> bytes:
    """Write one log as JSON lines and return the bytes written."""
    bodies: dict[bytes, str] = {}
    lines = []
    for e, (row, steps) in enumerate(zip(log.arrivals, log.steps.tolist())):
        key = row.tobytes()
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = _body(tuple(np.flatnonzero(row).tolist()), log.n)
        capped = "false" if row.any() else "true"
        lines.append(f'{{"episode":{e},{body},"steps":{steps},"capped":{capped}}}\n')
    data = "".join(lines).encode("utf-8")
    path.write_bytes(data)
    return data


def write_all(logs: list[Log], directory: Path) -> tuple[dict[str, Path], str]:
    """Write the corpus into ``directory``; return its paths and sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = {}
    for log in logs:
        paths[log.name] = directory / f"{log.name}.jsonl"
        digest.update(log.name.encode("utf-8") + b"\0")
        digest.update(write(log, paths[log.name]))
    return paths, digest.hexdigest()
