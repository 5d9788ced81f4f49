"""Shared fixtures."""

import pytest


@pytest.fixture
def opened_files(monkeypatch):
    """Every file that streammem.streamio opens during the test, in order."""
    opened = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr("streammem.streamio.open", recording_open, raising=False)
    return opened
