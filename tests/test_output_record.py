import json

from output_record import RECORD, outcome_in_empty_dir


def test_output_matches_the_record(tmp_path):
    # every command that loads no numpy, and every usage error, prints the
    # bytes the record holds; rewrite the record with output_record.py
    record = json.loads(RECORD.read_text())
    assert len(record) > 300
    moved = [entry["argv"] for entry in record if outcome_in_empty_dir(entry["argv"], tmp_path) != entry]
    assert moved == []
