"""JSON export of the paper artifacts: ``repro experiment <id> --json``.

``ExperimentResult.to_json()`` is the one structured export; these
tests pin its shape for the five plotted paper artifacts.
"""

import json

import pytest

from repro.experiments.registry import ExperimentConfig, get

ARTIFACTS = ("table1", "figure2", "figure3", "figure4", "colocation")


@pytest.fixture(scope="module")
def payloads():
    config = ExperimentConfig(fast=True, seed=0)
    return {name: json.loads(get(name).run(config).to_json()) for name in ARTIFACTS}


class TestPayloadShape:
    def test_every_payload_names_its_artifact(self, payloads):
        for name, payload in payloads.items():
            assert payload["experiment"] == name
            assert payload["title"] == get(name).title

    def test_rows_match_columns(self, payloads):
        for name, payload in payloads.items():
            assert payload["rows"], name
            columns = set(payload["rows"][0])
            for row in payload["rows"]:
                assert set(row) == columns, name

    def test_payloads_json_serializable(self, payloads):
        for name, payload in payloads.items():
            assert json.loads(json.dumps(payload)) == payload, name

    def test_figure3_covers_all_setups(self, payloads):
        setups = {row["setup"] for row in payloads["figure3"]["rows"]}
        assert setups == {"vanil", "ppsm", "coal", "horse"}

    def test_table1_has_nine_rows(self, payloads):
        assert len(payloads["table1"]["rows"]) == 9
