"""Tests for the solve daemon and the persistent memo store."""
