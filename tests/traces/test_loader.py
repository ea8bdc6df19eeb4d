"""Azure CSV loader."""

import random

import pytest

from repro.sim.units import SECOND
from repro.traces.loader import TraceFormatError, load_azure_invocations_csv


def write_csv(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    return path


VALID = (
    "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
    "o1,a1,func-a,http,2,0,1\n"
    "o2,a2,func-b,queue,0,3,0\n"
)


class TestLoader:
    def test_loads_functions_and_counts(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(0)
        )
        assert sorted(trace.invocations) == ["func-a", "func-b"]
        assert len(trace.invocations["func-a"]) == 3
        assert len(trace.invocations["func-b"]) == 3

    def test_timestamps_fall_in_their_minute(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(0)
        )
        minute = 60 * SECOND
        for t in trace.invocations["func-b"]:
            assert minute <= t < 2 * minute  # all counts in minute "2"

    def test_timestamps_sorted(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(1)
        )
        for timestamps in trace.invocations.values():
            assert timestamps == sorted(timestamps)

    def test_max_functions_limits_rows(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(0), max_functions=1
        )
        assert list(trace.invocations) == ["func-a"]

    def test_max_minutes_truncates(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(0), max_minutes=1
        )
        assert len(trace.invocations["func-a"]) == 2
        assert len(trace.invocations["func-b"]) == 0

    def test_duration_follows_minutes(self, tmp_path):
        trace = load_azure_invocations_csv(
            write_csv(tmp_path, VALID), random.Random(0)
        )
        assert trace.config.duration_s == 180.0

    def test_no_minute_columns_rejected(self, tmp_path):
        path = write_csv(tmp_path, "HashFunction,Trigger\nf,http\n")
        with pytest.raises(TraceFormatError):
            load_azure_invocations_csv(path, random.Random(0))

    def test_non_integer_count_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, "HashFunction,1\nf,notanumber\n"
        )
        with pytest.raises(TraceFormatError):
            load_azure_invocations_csv(path, random.Random(0))

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_azure_invocations_csv(path, random.Random(0))

    def test_negative_count_rejected_naming_function_and_minute(self, tmp_path):
        path = write_csv(tmp_path, "HashFunction,1,2\nf1,-5,3\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_azure_invocations_csv(path, random.Random(0))
        message = str(excinfo.value)
        assert str(path) in message
        assert "'f1'" in message and "minute 1" in message

    def test_duplicate_function_row_rejected(self, tmp_path):
        # Before this was rejected the second row replaced the first and
        # the negative count read as zero: f1 came back with 4 invocations.
        path = write_csv(tmp_path, "HashFunction,1,2\nf1,-5,3\nf1,2,2\n")
        with pytest.raises(TraceFormatError, match="negative"):
            load_azure_invocations_csv(path, random.Random(0))
        path = write_csv(tmp_path, "HashFunction,1,2\nf1,5,3\nf1,2,2\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_azure_invocations_csv(path, random.Random(0))
        message = str(excinfo.value)
        assert str(path) in message
        assert "duplicate" in message and "'f1'" in message
