"""Fixtures shared across test packages."""

import pytest


@pytest.fixture()
def forbid_folds():
    """``forbid_folds(monkeypatch) -> calls``: make every way between a
    kernel engine's columns and Python state -- shards built from the
    runs and pair chunks, a day's pairs or the changed pairs folded into
    tuples, a shard lifted back into columns -- record itself in *calls*
    and raise, for as long as *monkeypatch* holds.  The no-materialize
    drills (a served day, a serving standby, a JSON-resumed daemon) run
    under it."""
    from repro.stream import ckptbin, columnar, engine, state

    def forbid(monkeypatch) -> list[str]:
        calls: list[str] = []

        def forbidden(name):
            def fold(*_args, **_kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on a served engine")

            return fold

        for name in ("shard_states", "day_pairs_set"):
            monkeypatch.setattr(columnar.ColumnarAccumulator, name, forbidden(name))
        monkeypatch.setattr(
            columnar, "fold_changed_pairs", forbidden("fold_changed_pairs")
        )
        # lift_family is imported by name where it is called.
        for module in (state, engine, ckptbin):
            monkeypatch.setattr(module, "lift_family", forbidden("lift_family"))
        return calls

    return forbid
