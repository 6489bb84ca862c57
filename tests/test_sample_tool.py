"""Smoke test of the untraced sampler, ``python -m benchmarks.sample``."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _sample(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.sample", "write_synth", "--scale", "0.02", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_sampling_pools_fresh_processes():
    lines = _sample("--runs", "2")
    assert "from 2 process(es)" in lines[0]
    shares = [line.split() for line in lines[1:] if not line.startswith(" ")]
    assert shares and all(share[-1].endswith("%") for share in shares)
    assert "sim" in {share[0] for share in shares}


def test_footprint_reports_rss_by_phase_and_allocation_sites():
    lines = _sample("--footprint")
    rss = {line.split()[1]: float(line.split()[2]) for line in lines if "after" in line}
    assert list(rss) == ["imports", "setup", "measured"]
    assert 0 < rss["imports"] <= rss["setup"] <= rss["measured"]
    assert "  numpy loaded: False" in lines
    start = next(i for i, line in enumerate(lines) if line.startswith("top sites"))
    sites = lines[start + 1 :]
    assert len(sites) == 10 and all("KiB" in site for site in sites)
