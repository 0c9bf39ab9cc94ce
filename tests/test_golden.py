"""Golden outputs: sha256 digests of CLI results recorded before the integer
LP descent and the leaner sampler round replaced the code that made them.
Any change to a census or rewiring figure, or to the CSV bytes, fails here."""

import hashlib

from sgfp.cli import main
from sgfp.experiments import strip_isolates
from sgfp.ingest import edge_list_text
from sgfp.randgen import gnp, mix

CENSUS_SHA256 = "c193031d97fdc80fcd0b5330aac883b47c4661cbe70435c49d02160b1c70cfb3"
REWIRE_SHA256 = "1085e132eabcfb7a0cf52cce3b4f0bfb869a489450921b0d3b2d06584c7c2dce"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_census_output_is_unchanged(tmp_path):
    out = tmp_path / "census.csv"
    argv = ["census", "--nmin", "3", "--nmax", "10", "--samples", "2000", "--seed", "0"]
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out) == CENSUS_SHA256


def test_rewire_experiment_output_is_unchanged(tmp_path, monkeypatch):
    # 20 graphs drawn as criterion 9 draws them; relative paths keep the
    # network ids, and so the digest, free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    names = []
    for i in range(20):
        n = 12 + mix(204, 10_000 + i) % 29
        p = 0.15 + (mix(204, 20_000 + i) % 1000) / 1000 * 0.45
        names.append(f"g{i:02d}.edges")
        (tmp_path / names[-1]).write_text(edge_list_text(strip_isolates(gnp(n, p, mix(204, i)))))
    assert main(["rewire-experiment", *names, "--seed", "5", "--output", "rewire.csv"]) == 0
    assert _digest(tmp_path / "rewire.csv") == REWIRE_SHA256
