"""Seeded input generators: a synthetic city taxonomy and an `analyze` corpus.

Both write plain files that the program then reads; neither imports infoseek.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from reference import LEVELS, Pred, Table, eliminated, halving_menu, ig, load_table

SYLLABLES = (
    "ka", "lo", "mi", "ra", "to", "ve", "su", "na", "di", "po", "le", "zu",
    "ba", "re", "no", "ti", "sa", "go", "fe", "mu", "ri", "da", "ko", "pe",
)
COLUMNS = (
    "city_id", "city_name", "state_id", "state_name", "country_id", "country_name",
    "region_id", "region_name", "subregion_id", "subregion_name", "population_2025",
)


class _Ids:
    """Assigns ancestor ids on first use of a name, one counter per level."""

    def __init__(self) -> None:
        self._ids: dict[str, dict[str, int]] = {level: {} for level in LEVELS[:-1]}

    def of(self, level: str, name: str) -> int:
        table = self._ids[level]
        return table.setdefault(name, len(table) + 1)


def _name(rng: random.Random, used: set[str]) -> str:
    while True:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        name = word.capitalize() + rng.choice(("", "", " Nova", " Alta", "ville", "grad"))
        if name.casefold() not in used:
            used.add(name.casefold())
            return name


def write_taxonomy(path: Path, seed: int, fanouts: tuple[int, ...]) -> int:
    """Region→subregion→country→state→city tree with the given fan-out per level.

    The seed only spells the names. They are unique across the file and, per
    level, sort in the same order as the ids, so the shape of every game on a
    given city id is the same whatever the seed.
    """
    rng = random.Random(f"taxonomy|{seed}")
    used: set[str] = set()
    names = []
    for depth in range(len(LEVELS)):
        count = 1
        for fanout in fanouts[: depth + 1]:
            count *= fanout
        names.append(iter(sorted(_name(rng, used) for _ in range(count))))
    ids = _Ids()
    rows = []

    def grow(depth: int, path_names: list[str]) -> None:
        for _ in range(fanouts[depth]):
            here = [*path_names, next(names[depth])]
            if depth + 1 < len(LEVELS):
                grow(depth + 1, here)
                continue
            region, subregion, country, state, city = here
            rows.append({
                "city_id": len(rows) + 1, "city_name": city,
                "state_id": ids.of("state", state), "state_name": state,
                "country_id": ids.of("country", country), "country_name": country,
                "region_id": ids.of("region", region), "region_name": region,
                "subregion_id": ids.of("subregion", subregion), "subregion_name": subregion,
                "population_2025": rng.randint(100_000, 30_000_000),
            })

    grow(0, [])
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def fingerprint(csv_path: Path) -> str:
    """Transcript schema v1 dataset fingerprint: sha256 of the sorted record lines."""
    with csv_path.open(newline="", encoding="utf-8") as handle:
        lines = sorted(
            ",".join(row[c].strip() for c in COLUMNS) for row in csv.DictReader(handle)
        )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


PROSE = (
    "Weighing which split is most even. Options",
    "Thinking about the remaining candidates. Candidates",
    "Let me compare a few splits",
    "Several questions come to mind",
)
DISTRACTORS = (
    "Does the target city lie on a coast?",
    "Could it be a national capital?",
    "Has the target city hosted the Olympics?",
    "Does the target city have a metro system?",
    "Would a question about climate help?",
    "Should I ask about the hemisphere first?",
)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _turn_trace(rng: random.Random, menu, executed: Pred):
    """A reasoning trace mixing parseable candidates with unparseable distractors.

    Returns (trace, written parseable questions, number of questions written).
    """
    picks = rng.sample(menu, min(len(menu), rng.randint(1, 4)))
    candidates = [p for p in picks if p != executed]
    if rng.random() < 0.7:
        candidates.insert(rng.randrange(len(candidates) + 1), executed)
    distractors = rng.sample(DISTRACTORS, rng.randint(0, 2))
    lines = [f'- "{p.render()}"' for p in candidates] + [f"- {d}" for d in distractors]
    rng.shuffle(lines)
    trace = f"{rng.choice(PROSE)}:\n" + "\n".join(lines) + "\nI will go with the most even one."
    return trace, candidates, len(lines)


def write_corpus(out_dir: Path, seed: int, csv_path: Path, n_games: int) -> list[dict]:
    """Write `n_games` schema-v1 transcripts with reasoning traces.

    Returns, per file, its turn count and the reference's figures for each
    turn that carries a trace: (turn index, chosen ig, optimal ig, candidates).
    """
    table: Table = load_table(csv_path)
    fp = fingerprint(csv_path)
    rng = random.Random(f"corpus|{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = []
    for game in range(n_games):
        target = rng.choice(sorted(table))
        active = set(table)
        lines = [_dump({
            "kind": "header", "schema_version": 1, "dataset_fingerprint": fp,
            "config": {"target": f"city:{target}", "max_turns": 30, "observability": "po",
                       "rng_seed": game, "audit": False},
        })]
        total, outcome, decisions = 0.0, "turn_limit", []
        for turn in range(1, 31):
            menu = [p for *_, p in halving_menu(active, table)]
            executed = menu[0] if rng.random() < 0.6 else rng.choice(menu)
            if len(active) <= 2:
                executed = Pred("city", (table[target][-1],), guess=True)
            n_before = len(active)

            def bits(p: Pred) -> float:
                removed = eliminated(p, p.matches(table[target]), active, table)
                return ig(n_before, n_before - len(removed))

            trace = None
            # The first turn always carries a trace, so every game has an analysed turn.
            if turn == 1 or rng.random() < 0.75:
                trace, written, n_written = _turn_trace(rng, menu, executed)
                chosen = bits(executed)
                optimal = max([chosen, *(bits(p) for p in written)])
                decisions.append((turn, chosen, optimal, n_written + (executed not in written)))
            yes = executed.matches(table[target])
            pruned = eliminated(executed, yes, active, table)
            active -= pruned
            gain = ig(n_before, len(active))
            total += gain
            lines.append(_dump({
                "kind": "turn", "turn_index": turn, "question_text": executed.render(),
                "predicate": executed.canonical(), "oracle_answer": "Yes" if yes else "No",
                "game_over": executed.guess and yes,
                "pruned_ids": [f"city:{c}" for c in sorted(pruned)],
                "h_before": ig(n_before, 1), "h_after": ig(len(active), 1), "ig": gain,
                "seeker_trace": trace, "consistency_faults": [],
            }))
            if executed.guess and yes:
                outcome = "win"
                break
        n_turns = len(lines) - 1
        lines.append(_dump({
            "kind": "footer", "outcome": outcome,
            "game_metrics": {"win": outcome == "win", "turns": n_turns, "total_ig": total,
                             "ig_per_turn": total / n_turns},
        }))
        path = out_dir / f"game{game:04d}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected.append({"path": path, "turns": n_turns, "decisions": decisions})
    return expected
