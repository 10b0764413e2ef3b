from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from rmlprune.algebra import DataObject, RmlMappingExpr
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.rml import parse_rml

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def airports_mapping() -> RmlMappingExpr:
    return parse_rml((DATA_DIR / "airports.ttl").read_bytes())


@pytest.fixture(scope="session")
def airports_sigma() -> dict[str, DataObject]:
    table = parse_csv((DATA_DIR / "airports.csv").read_bytes())
    return {"airports.csv": DataObject(kind=CSV_KIND, payload=table)}


@pytest.fixture(scope="session")
def airports_query_text() -> str:
    return (DATA_DIR / "airports.rq").read_text(encoding="utf-8")
