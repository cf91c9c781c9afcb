"""Byte-for-byte regression of every ``--help`` text of ``frontpage``.

Each case prints one parser level's help, at a terminal 80 columns wide
and without colour, and compares its sha256 against a recorded digest:
the top level, the ``simulate`` and ``fit`` groups, and each of the
eight commands.  The digests were recorded on CPython 3.11; argparse's
layout may differ on other versions.

To re-record after an intended help change, run this module as a script
(``PYTHONPATH=src python tests/test_help_text.py``).  It prints each
level's text and digest; check that each changed text is one the change
meant to alter, then paste its digest over its entry in ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from frontpage.cli import main

GOLDEN = {
    "frontpage":
        "e621e082f8f38c677fef28cf679cdfbc74b05f3ac321a6ef27f09f6aa51ea263",
    "frontpage simulate":
        "b254f5488c7bdbb4e07c745c61d4c73dfa941e7d184daebf3a2e5576811ad1e0",
    "frontpage fit":
        "4bedc70368837e6ba48548e7c1a846213674669bad250213cdf99c864f2e763b",
    "frontpage simulate votes":
        "250aea4f3b2a3c10e1407298b7e7465480874e2d123242ac03fbada82048ced3",
    "frontpage simulate rank":
        "e24d14356b85a1ef2cda3fea73c61878f21ac2b663701bf4bfe893e8dbe0ffb0",
    "frontpage ensemble":
        "a56194312763ed352e86fab553777bc2e3eab82caeecd77d6dce24f885d6b72e",
    "frontpage fit linear":
        "396ab2f20bb7cde9771cf58a3600a814795db0028f1a139518b8d2c6296ea053",
    "frontpage fit log":
        "378d7f5b1cc63cefd91830c5735e110d3c69db74a51678e70f1e221ac4c60d8d",
    "frontpage fit success":
        "e9e11c5059a156557540b2a1b58709e93a3cae6640bcc4b53598486c60334763",
    "frontpage significance":
        "96e5a192bd92789a7cb55fe9026ff252ab6f3a060c8cadf673f452f51cb7ac84",
    "frontpage compare":
        "91408459541b5a8cbc80ba61aba2c5ab743d1379b33d6e5b4ad8d7db9f1aaa1c",
}


def _help(level: str) -> str:
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), pytest.raises(SystemExit) as exit_:
        main([*level.split()[1:], "--help"])
    assert exit_.value.code == 0
    return stream.getvalue()


@pytest.mark.parametrize("level", list(GOLDEN))
def test_help_text_unchanged(level, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.delenv("FORCE_COLOR", raising=False)
    text = _help(level)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[level], text


if __name__ == "__main__":
    os.environ.update(COLUMNS="80", NO_COLOR="1")
    os.environ.pop("FORCE_COLOR", None)
    for level in GOLDEN:
        text = _help(level)
        print(f"{level} --help")
        print(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f'    "{level}":\n        "{digest}",\n')
