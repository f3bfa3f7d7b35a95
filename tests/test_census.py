import importlib.util
from pathlib import Path

import pytest

from hirotalab import cli

CENSUS = Path(__file__).resolve().parents[1] / "scripts/census.py"


def _census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "departing",
    [None, ("default_config.json", "propagate"), ("third_order_config.json", "scatter")],
    ids=["table", "default_propagate_passes", "third_order_scatter_fails"],
)
def test_census_exits_1_only_when_a_bundled_config_departs_from_its_table(monkeypatch, capsys, departing):
    # no seed and no real command: cli.main answers each bundled (config,
    # command) pair with its table code, or with the other verdict for departing
    census = _census()
    monkeypatch.setattr(census, "SEEDS", range(0))

    def main(argv):
        pair = (Path(argv[argv.index("--config") + 1]).name, argv[0])
        code = census.TABLE[pair[0]][pair[1]]
        return 2 - code if pair == departing else code

    monkeypatch.setattr(cli, "main", main)
    code = census.main()
    err = capsys.readouterr().err
    if departing is None:
        assert code == 0 and err == ""
    else:
        name, command = departing
        want = census.TABLE[name][command]
        assert code == 1
        assert err == f"{name} {command}: exit {2 - want}, the table says {want}\n"


def test_every_bundled_config_has_a_verdict_row():
    census = _census()
    assert set(census.TABLE) == {path.name for path in census.DATA.glob("*.json")}
