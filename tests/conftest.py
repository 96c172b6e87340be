"""Fixtures shared across test packages."""

import pytest


@pytest.fixture()
def forbid_folds():
    """``forbid_folds(monkeypatch) -> calls``: make every way the kernel's
    columns become Python state -- runs or pair chunks moved into the
    shards, changed pairs folded into tuples -- record itself in *calls*
    and raise, for as long as *monkeypatch* holds.  The no-materialize
    drills (a served day, a serving standby) run under it."""
    from repro.stream import columnar

    def forbid(monkeypatch) -> list[str]:
        calls: list[str] = []

        def forbidden(name):
            def fold(*_args, **_kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on a served engine")

            return fold

        for name in ("materialize", "fold_aggregates", "_fold_pairs"):
            monkeypatch.setattr(columnar.ColumnarAccumulator, name, forbidden(name))
        monkeypatch.setattr(
            columnar, "fold_changed_pairs", forbidden("fold_changed_pairs")
        )
        return calls

    return forbid
