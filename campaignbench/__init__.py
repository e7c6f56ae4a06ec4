"""End-to-end campaign benchmark with a per-layer ledger (see run.py)."""
