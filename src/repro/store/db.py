"""SQLite plumbing for the run store.

One database file (``xplain.sqlite`` inside the store directory) holds
every run-store table. WAL journaling plus a busy timeout make the
single file safe for the access pattern the system actually has — the
service's worker thread writing runs and HTTP reader threads reading
them, and a CLI campaign sharing the store — without a server process.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

#: database file name inside a store directory
DB_NAME = "xplain.sqlite"

#: bump on any table change; the store refuses newer-schema databases
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    seed INTEGER NOT NULL,
    spec_json TEXT NOT NULL,
    status TEXT NOT NULL,
    error TEXT,
    report_json TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    payload_json TEXT NOT NULL,
    status TEXT NOT NULL,
    report_json TEXT,
    timing_json TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_runs (
    campaign_id TEXT NOT NULL,
    position INTEGER NOT NULL,
    run_id TEXT NOT NULL,
    job_name TEXT NOT NULL,
    PRIMARY KEY (campaign_id, position)
);
CREATE INDEX IF NOT EXISTS idx_campaign_runs_run
    ON campaign_runs (run_id);
"""


def store_db_path(path: str | Path) -> Path:
    """The database file for a store path (directory or ``.sqlite`` file)."""
    path = Path(path)
    if path.suffix == ".sqlite":
        return path
    return path / DB_NAME


def connect(path: str | Path, init: bool = True) -> sqlite3.Connection:
    """Open (creating if needed) the store database at ``path``.

    WAL journaling, relaxed-but-durable sync, and a generous busy
    timeout let concurrent writers (service threads, a CLI campaign on
    the same store) queue instead of failing. ``init=False`` skips the
    schema DDL + version check for callers that already initialized
    this store (per-operation connections on a hot path); the database
    file must then exist.
    """
    db_path = store_db_path(path)
    db_path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(db_path, timeout=30.0)
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout=30000")
    if init:
        _init_schema(conn)
    return conn


def _init_schema(conn: sqlite3.Connection) -> None:
    with conn:
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        elif int(row["value"]) > STORE_SCHEMA_VERSION:
            raise RuntimeError(
                f"store database schema v{row['value']} is newer than this "
                f"code (v{STORE_SCHEMA_VERSION}); upgrade the package"
            )
