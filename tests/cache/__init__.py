"""Tests for the structure-keyed language cache (:mod:`repro.cache`)."""
