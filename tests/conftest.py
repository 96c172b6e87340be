"""Fixtures shared across test packages."""

import pytest


@pytest.fixture()
def forbid_folds():
    """``forbid_folds(monkeypatch) -> calls``: make every way between a
    kernel engine's columns and Python state -- a column record folded
    into a ``ShardState`` (``materialize()``), changed pairs folded
    into tuples, a shard lifted back into columns
    -- record itself in *calls* and raise, for as long as *monkeypatch*
    holds.  The no-materialize drills (a served day, a serving standby,
    a JSON-resumed daemon, a JSON restore) run under it."""
    from repro.stream import columnar, engine, state

    def forbid(monkeypatch) -> list[str]:
        calls: list[str] = []

        def forbidden(name):
            def fold(*_args, **_kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on a served engine")

            return fold

        monkeypatch.setattr(
            columnar, "fold_changed_pairs", forbidden("fold_changed_pairs")
        )
        # Both are imported by name where they are called.
        monkeypatch.setattr(state, "lift_family", forbidden("lift_family"))
        for module in (state, engine):
            monkeypatch.setattr(module, "fold_record", forbidden("fold_record"))
        return calls

    return forbid
