"""Tests of the benchmark's own logic (no library code runs here)."""
