import os

import pytest

from gwsym.nullcone import standard_config


@pytest.fixture(scope="session")
def config():
    return standard_config()


@pytest.fixture(scope="session")
def evaluator(config):
    from gwsym.interaction import shared_evaluator
    return shared_evaluator(config)


@pytest.fixture(scope="session")
def chain_terms(config):
    """The six nested-chain terms' values, keyed by their first three
    waves: family 4's members, on the shared evaluator."""
    from gwsym.interaction import item_value, shared_evaluator
    ev = shared_evaluator(config)
    return {t.perm[:3]: ev.eval(t.ast)
            for t in item_value(4, config)["members"]}


@pytest.fixture(scope="session")
def tt_symbols():
    """Transverse-traceless integer wave symbols (symmetric 4x4 lists)."""
    def m(entries):
        rows = [[0] * 4 for _ in range(4)]
        for i, j, v in entries:
            rows[i][j] = v
            rows[j][i] = v
        return rows

    return {1: m([(1, 1, 1), (3, 3, -1)]),
            2: m([(1, 1, 1), (2, 2, -1)]),
            3: m([(2, 2, 1), (3, 3, -1)]),
            4: m([(2, 3, 1)])}


@pytest.fixture(scope="session")
def tt_evaluator(config, tt_symbols):
    """A fresh evaluator whose wave symbols are ``tt_symbols``."""
    from gwsym.forms import SlotValue
    from gwsym.interaction import Evaluator
    from gwsym.tensor import Sym2T
    overrides = {i: SlotValue(Sym2T(tt_symbols[i]), config.zeta(i))
                 for i in tt_symbols}
    return Evaluator(config, leaf_symbols=overrides)


@pytest.fixture
def fresh_jet_memo():
    """No exact jet memoized, as in a fresh process, so a command that reads
    the oracles forks their child; emptied again afterwards, since a test
    may fill it with an altered jet."""
    from gwsym import oracle
    oracle._exact_jet.cache_clear()
    yield
    oracle._exact_jet.cache_clear()


class PidLog:
    """A count of calls kept in a file, one line per call with the caller's
    pid, so that the calls of a forked child count too."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def note(self):
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")

    def pids(self) -> list:
        return [int(p) for p in self.path.read_text().split()]


@pytest.fixture
def pid_log(tmp_path):
    return PidLog(tmp_path / "calls")
