"""Every recorded run of digests.py writes the reports whose SHA-256 digests
report_digests.json holds for this build; a build without an entry skips,
naming itself."""

import pytest

from digests import build, committed, digests, runs


@pytest.mark.parametrize("name", list(runs()))
def test_reports_keep_their_committed_digests(name):
    table = committed()
    if not table:
        pytest.skip(f"report_digests.json has no digests for the build {build()}")
    want = {key: value for key, value in table.items() if key.split("/")[0] == name}
    got = digests(name)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, f"reports that differ from their committed digests: {moved}"
