"""CSV ingestion and validation for the city hypothesis space.

The expected file is one row per city with ids and names for all five
levels plus an optional 2025 population column used for top-N filtering.
A bundled 40-city file ships with the package so everything runs offline.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

REQUIRED_COLUMNS = frozenset(
    {
        "city_id",
        "city_name",
        "state_id",
        "state_name",
        "country_id",
        "country_name",
        "region_id",
        "region_name",
        "subregion_id",
        "subregion_name",
    }
)
OPTIONAL_COLUMNS = frozenset({"population_2025"})


class DatasetError(Exception):
    pass


class MissingColumnError(DatasetError):
    pass


class UnexpectedColumnError(DatasetError):
    pass


class EmptyFileError(DatasetError):
    pass


class MissingPopulationError(DatasetError):
    pass


class BadRowError(DatasetError):
    def __init__(self, row_index: int, reason: str) -> None:
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


@dataclass(frozen=True)
class CityRecord:
    city_id: int
    city_name: str
    state_id: int
    state_name: str
    country_id: int
    country_name: str
    region_id: int
    region_name: str
    subregion_id: int
    subregion_name: str
    population_2025: int | None = None


@dataclass(frozen=True)
class DatasetManifest:
    source: str
    record_count: int
    content_hash: str
    top_n: int | None = None


_ID_FIELDS = ("city_id", "state_id", "country_id", "region_id", "subregion_id")
_NAME_FIELDS = ("city_name", "state_name", "country_name", "region_name", "subregion_name")


def load_csv(path: str | Path) -> list[CityRecord]:
    """Parse and validate the city CSV; header order does not matter."""
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise DatasetError(f"{path}: not a file") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyFileError(f"{path} has no header row")
        columns = set(reader.fieldnames)
        missing = REQUIRED_COLUMNS - columns
        if missing:
            raise MissingColumnError(f"{path} is missing column(s): {', '.join(sorted(missing))}")
        extra = columns - REQUIRED_COLUMNS - OPTIONAL_COLUMNS
        if extra:
            raise UnexpectedColumnError(f"{path} has unknown column(s): {', '.join(sorted(extra))}")

        records = []
        for row_index, row in enumerate(reader, start=1):
            fields: dict[str, object] = {}
            for name in _ID_FIELDS:
                value = (row[name] or "").strip()
                if not value.isdigit():
                    raise BadRowError(row_index, f"{name} must be a non-negative integer, got {value!r}")
                fields[name] = int(value)
            for name in _NAME_FIELDS:
                value = (row[name] or "").strip()
                if not value:
                    raise BadRowError(row_index, f"{name} is empty")
                fields[name] = value
            if "population_2025" in columns:
                value = (row["population_2025"] or "").strip()
                if value:
                    if not value.isdigit():
                        raise BadRowError(
                            row_index, f"population_2025 must be a non-negative integer, got {value!r}"
                        )
                    fields["population_2025"] = int(value)
            records.append(CityRecord(**fields))  # type: ignore[arg-type]
    if not records:
        raise EmptyFileError(f"{path} has a header but no rows")
    return records


def top_n_by_population(records: list[CityRecord], n: int) -> list[CityRecord]:
    """The n most populous records, descending; population ties keep lower city_id."""
    if n < 1:
        raise DatasetError(f"n must be >= 1, got {n}")
    for record in records:
        if record.population_2025 is None:
            raise MissingPopulationError(f"city_id={record.city_id} has no population_2025")
    ranked = sorted(records, key=lambda r: (-(r.population_2025 or 0), r.city_id))
    return ranked[:n]


def file_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_dataset(
    path: str | Path, top_n: int | None = None
) -> tuple[list[CityRecord], DatasetManifest]:
    records = load_csv(path)
    if top_n is not None:
        records = top_n_by_population(records, top_n)
    manifest = DatasetManifest(
        source=str(path),
        record_count=len(records),
        content_hash=file_hash(path),
        top_n=top_n,
    )
    return records, manifest


def bundled_dataset_path() -> Path:
    """Location of the vendored 40-city fixture file."""
    return Path(str(resources.files("infoseek").joinpath("data/top_40_pop_cities.csv")))
