"""Seeded end-to-end and per-layer benchmark of the CDC engine (see README.md)."""
