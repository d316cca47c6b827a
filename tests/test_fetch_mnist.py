"""scripts/fetch_mnist.py writes each file whole or not at all, with no network.

urllib.request.urlopen is replaced by a fake that serves gzipped IDX bytes
from a dict of URLs, so each mirror's answer is chosen by the test.
"""

import gzip
import importlib.util
import io
import urllib.error
from pathlib import Path

import pytest

from synthdigits import make_raw_dataset, serialize_idx_images, serialize_idx_labels

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_mnist.py"


def load_script():
    spec = importlib.util.spec_from_file_location("fetch_mnist", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payloads(fetch_mnist) -> dict:
    """Each of the four files' IDX bytes, from a small synthetic dataset."""
    data = make_raw_dataset(6, seed=41)
    images, labels = serialize_idx_images(data.images), serialize_idx_labels(data.labels)
    return {name: images if "images" in name else labels for name in fetch_mnist.FILES}


@pytest.fixture
def served(monkeypatch):
    """(script module, {url: bytes served}, [urls requested]); an unknown URL fails."""
    fetch_mnist, served, requested = load_script(), {}, []

    def urlopen(url, timeout):
        requested.append(url)
        if url not in served:
            raise urllib.error.URLError(f"no route to {url}")
        return io.BytesIO(served[url])

    monkeypatch.setattr(fetch_mnist.urllib.request, "urlopen", urlopen)
    return fetch_mnist, served, requested


def test_each_file_equals_its_payload_with_no_part_left(served, tmp_path, capsys):
    fetch_mnist, urls, requested = served
    want = payloads(fetch_mnist)
    first = fetch_mnist.MIRRORS[0]
    urls.update({f"{first}{name}.gz": gzip.compress(data) for name, data in want.items()})
    for name in fetch_mnist.FILES:
        fetch_mnist.fetch(name, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == want
    fetch_mnist.fetch(fetch_mnist.FILES[0], tmp_path)  # present: nothing is requested
    assert len(requested) == len(want)
    assert capsys.readouterr().out.endswith("already present\n")


@pytest.mark.parametrize("corrupt", [
    lambda gz: gz[10:],  # no gzip header
    lambda gz: gz[: len(gz) // 2],  # cut short
    lambda gz: gz[:-8] + bytes(8),  # a wrong CRC and length
], ids=["not-gzip", "truncated", "bad-trailer"])
def test_a_corrupt_download_falls_through_to_the_next_mirror(served, tmp_path, corrupt):
    fetch_mnist, urls, requested = served
    name = fetch_mnist.FILES[1]
    data = payloads(fetch_mnist)[name]
    first, second = (f"{mirror}{name}.gz" for mirror in fetch_mnist.MIRRORS[:2])
    urls.update({first: corrupt(gzip.compress(data)), second: gzip.compress(data)})
    fetch_mnist.fetch(name, tmp_path)
    assert requested == [first, second]
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == data


def test_a_failed_rename_leaves_no_file_and_a_rerun_fetches_it(served, tmp_path, monkeypatch):
    fetch_mnist, urls, requested = served
    name = fetch_mnist.FILES[0]
    data = payloads(fetch_mnist)[name]
    urls.update({f"{mirror}{name}.gz": gzip.compress(data) for mirror in fetch_mnist.MIRRORS})

    def fail(src, dst):
        raise OSError(f"cannot rename {src}")

    with monkeypatch.context() as patch:
        patch.setattr(fetch_mnist.os, "replace", fail)
        with pytest.raises(SystemExit, match=f"^could not fetch {name}: cannot rename "):
            fetch_mnist.fetch(name, tmp_path)
    assert len(requested) == len(fetch_mnist.MIRRORS)
    assert list(tmp_path.iterdir()) == []
    fetch_mnist.fetch(name, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == data
