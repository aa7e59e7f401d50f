"""Measurement: counters, per-transaction stats, tables, and timelines."""
