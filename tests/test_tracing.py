"""The benchmark's traced run patches qsreg names in place; each must still exist there."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_is_where_the_tracer_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.TRACED
        if attr not in owner.__dict__
    ]
    assert not missing, f"traced names moved or removed: {missing}"
