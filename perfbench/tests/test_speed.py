import pytest

import speed

NAMES = tuple(speed.PARTS)
REF = [speed.PARTS[name][1] for name in NAMES]


def test_index_is_one_at_the_reference_times():
    assert speed.index(NAMES, REF, REF) == pytest.approx(1.0)


def test_index_is_the_geometric_mean_of_the_slowdowns():
    assert speed.index(NAMES, [2 * r for r in REF], [2 * r for r in REF]) == pytest.approx(2.0)
    two = NAMES[:2]
    before = [2 * REF[0], REF[1] / 2]
    assert speed.index(two, before, before) == pytest.approx(1.0)
    # before and after are averaged per part
    assert speed.index(NAMES, REF, [3 * r for r in REF]) == pytest.approx(2.0)


def test_timed_returns_the_wall_time_and_the_index(monkeypatch):
    slow = [2 * speed.PARTS["python"][1]]
    monkeypatch.setattr(speed, "sample", lambda parts: slow)
    wall, idx, result = speed.timed(("python",), lambda: sum(range(1000)))
    assert result == sum(range(1000))
    assert wall > 0
    assert idx == pytest.approx(2.0)
