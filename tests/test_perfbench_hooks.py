"""The traced benchmark run wraps program functions by rebinding their names
in the modules that look them up; every such name must still exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bound(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_traced_names_exist_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    tr = Tracer()
    try:
        # a name the program no longer defines fails here
        layers.install(tr)
        patches = list(tr._patches)
    finally:
        tr.restore()
    assert patches
    for owner, attr, orig in patches:
        assert callable(orig), (owner, attr)
        assert _bound(owner, attr) is orig, (owner, attr)
