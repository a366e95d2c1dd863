import hashlib
import json

import pytest

from klmoments.cache import PowerSumStore, _checksum, _payload, resolve_cache_dir
from klmoments.errors import CacheMismatch
from klmoments.moments import (
    COMPLETED,
    METHOD_EXACT,
    METHOD_FLOAT,
    RESTRICTED,
    PowerSumTable,
    power_sums_exact,
)


@pytest.fixture()
def store(tmp_path):
    return PowerSumStore(tmp_path)


class TestRoundTrip:
    def test_store_and_load(self, store):
        table = power_sums_exact(7, 6)
        store.store(table)
        loaded = store.load(7, METHOD_EXACT)
        assert loaded == table

    def test_missing_returns_none(self, store, caplog):
        # neither a miss nor a record without its sibling is a corrupt entry
        with caplog.at_level("WARNING"):
            assert store.load(11, METHOD_EXACT) is None
            store.store(power_sums_exact(7, 3))
            assert store.load(7, METHOD_EXACT) == power_sums_exact(7, 3)
        assert caplog.records == []

    @pytest.mark.parametrize("method, convention", [
        (METHOD_EXACT, RESTRICTED), (METHOD_FLOAT, COMPLETED),
    ])
    def test_stored_in_the_methods_convention(self, store, method, convention):
        # either convention in, one file out, in the method's convention
        exact = power_sums_exact(7, 4)
        paths, texts = set(), set()
        for given in (RESTRICTED, COMPLETED):
            values = exact.to_convention(given).values
            path = store.store(PowerSumTable(7, given, values, method))
            paths.add(path.name)
            texts.add(path.read_text())
        assert paths == {f"p7-{convention}-{method}.json"} and len(texts) == 1
        loaded = store.load(7, method)
        assert loaded.convention == convention
        assert loaded.values == exact.to_convention(convention).values

    def test_decimal_string_values(self, store):
        path = store.store(power_sums_exact(7, 3))
        doc = json.loads(path.read_text())
        assert all(isinstance(e["value"], str) for e in doc["entries"])
        assert doc["schema_version"] == 1

    def test_store_makes_its_directory(self, tmp_path):
        # the first store under a missing root makes it, and leaves one file
        store = PowerSumStore(tmp_path / "a" / "b")
        path = store.store(power_sums_exact(7, 3))
        assert list(store.root.iterdir()) == [path]
        assert store.load(7, METHOD_EXACT) == power_sums_exact(7, 3)


class TestPinnedBytes:
    @pytest.fixture()
    def stored(self, store):
        exact = power_sums_exact(13, 8)
        completed = exact.to_convention(COMPLETED).values
        return [store.store(exact), store.store(PowerSumTable(13, COMPLETED, completed, METHOD_FLOAT))]

    def test_checksum_is_hashlibs_sha256(self, stored):
        # the checksum of the compact, sorted encoding, for exact and float records
        for path in stored:
            doc = json.loads(path.read_bytes())
            checksum = doc.pop("checksum")
            canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert _checksum(doc) == checksum == hashlib.sha256(canonical.encode()).hexdigest()

    def test_stored_bytes_are_the_sorted_encoding(self, stored):
        for path in stored:
            data = path.read_bytes()
            assert data == json.dumps(json.loads(data), sort_keys=True).encode()

    def test_record_written_by_json_dump_is_a_hit(self, store):
        # written as caches were before a store encoded once: the same bytes,
        # and a hit that computes nothing
        exact = power_sums_exact(13, 8)
        doc = _payload(exact)
        doc["checksum"] = _checksum(doc)
        path = store._path(13, METHOD_EXACT)
        path.parent.mkdir(parents=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        data = path.read_bytes()
        calls = []
        assert store.get_or_compute(13, 8, METHOD_EXACT, lambda: calls.append(1)) == exact
        assert calls == []
        assert store.store(exact).read_bytes() == data


class TestCorruption:
    def test_truncated_file_discarded(self, store, caplog):
        path = store.store(power_sums_exact(5, 3))
        path.write_text(path.read_text()[:40])
        with caplog.at_level("WARNING"):
            assert store.load(5, METHOD_EXACT) is None
        assert "discarding corrupt cache entry" in caplog.text
        assert not path.exists()

    @pytest.mark.parametrize("content", ["42", "null", '"x"'])
    def test_non_object_discarded(self, store, caplog, content):
        # valid JSON, but not the object a table is stored as
        path = store.store(power_sums_exact(7, 4))
        path.write_text(content)
        with caplog.at_level("WARNING"):
            assert store.load(7, METHOD_EXACT) is None
        assert "expected a JSON object" in caplog.text
        assert not path.exists()

    def test_tampered_value_fails_checksum(self, store, caplog):
        path = store.store(power_sums_exact(5, 3))
        doc = json.loads(path.read_text())
        doc["entries"][0]["value"] = "999"
        path.write_text(json.dumps(doc))
        with caplog.at_level("WARNING"):
            assert store.load(5, METHOD_EXACT) is None
        assert "checksum" in caplog.text

    def test_other_schema_version_discarded(self, store, caplog):
        # the checksum recomputed over schema_version 2, so only the version fails
        path = store.store(power_sums_exact(7, 4))
        doc = json.loads(path.read_text())
        del doc["checksum"]
        doc["schema_version"] = 2
        doc["checksum"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with caplog.at_level("WARNING"):
            assert store.load(7, METHOD_EXACT) is None
        assert "schema_version 2" in caplog.text
        assert not path.exists()

    def test_record_under_another_primes_name_discarded(self, store, caplog):
        # a valid p = 13 record, checksum and all, copied to p = 17's path
        path = store._path(17, METHOD_EXACT)
        path.write_bytes(store.store(power_sums_exact(13, 4)).read_bytes())
        with caplog.at_level("WARNING"):
            assert store.load(17, METHOD_EXACT) is None
        assert "header does not match file name" in caplog.text
        assert not path.exists()

    @pytest.mark.parametrize("convention", [RESTRICTED, COMPLETED])
    def test_identity_breaking_entry_discarded(self, store, caplog, convention):
        # a valid checksum over a wrong S_2, S_3 or S_4, each moved by p^2 so
        # the congruence mod p^2 still holds, handed over in either convention
        good = power_sums_exact(13, 4).to_convention(convention)
        for n in (2, 3, 4):
            path = store.store(
                PowerSumTable(13, convention, {**good.values, n: good.values[n] + 13**2},
                              METHOD_FLOAT)
            )
            with caplog.at_level("WARNING"):
                assert store.load(13, METHOD_FLOAT) is None
            assert f"S_{n}(13)" in caplog.text
            assert not path.exists()

    def test_weil_breaking_entry_discarded(self, store, caplog):
        # S_1 and S_2 intact; |S_8(13)| one past (p - 1)(2 sqrt p)^8 = 12 * 52^4
        good = power_sums_exact(13, 8)
        path = store.store(
            PowerSumTable(13, RESTRICTED, {**good.values, 8: 12 * 52**4 + 1}, METHOD_FLOAT)
        )
        with caplog.at_level("WARNING"):
            assert store.load(13, METHOD_FLOAT) is None
        assert "Weil bound" in caplog.text
        assert not path.exists()


class TestCrossMethodConsistency:
    def test_agreeing_records_load(self, store):
        exact = power_sums_exact(7, 4)
        store.store(exact)
        store.store(
            PowerSumTable(
                7, COMPLETED,
                exact.to_convention(COMPLETED).values,
                METHOD_FLOAT,
            )
        )
        assert store.load(7, METHOD_EXACT) is not None

    def test_disagreeing_records_fail_loudly(self, store):
        exact = power_sums_exact(7, 6)
        store.store(PowerSumTable(7, RESTRICTED, exact.values, METHOD_EXACT))
        wrong = dict(exact.values)
        wrong[5] += 1  # S_1..S_4 intact, so only the agreement check sees it
        store.store(PowerSumTable(7, RESTRICTED, wrong, METHOD_FLOAT))
        with pytest.raises(CacheMismatch):
            store.load(7, METHOD_EXACT)

    def test_cross_convention_disagreement_detected(self, store):
        # exact tables persist restricted, float tables completed; the
        # agreement check must still compare them
        exact = power_sums_exact(7, 6)
        store.store(exact)
        wrong = dict(exact.to_convention(COMPLETED).values)
        wrong[5] -= 7**2  # same congruence class, different value
        store.store(PowerSumTable(7, COMPLETED, wrong, METHOD_FLOAT))
        with pytest.raises(CacheMismatch):
            store.load(7, METHOD_EXACT)


class TestGetOrCompute:
    def test_computes_once(self, store):
        calls = []

        def compute():
            calls.append(1)
            return power_sums_exact(11, 5)

        first = store.get_or_compute(11, 5, METHOD_EXACT, compute)
        second = store.get_or_compute(11, 5, METHOD_EXACT, compute)
        assert first == second and len(calls) == 1

    def test_extends_partial_table(self, store):
        store.store(power_sums_exact(11, 3))
        table = store.get_or_compute(11, 6, METHOD_EXACT, lambda: power_sums_exact(11, 6))
        assert set(table.values) == set(range(1, 7))

    @pytest.mark.parametrize("nmax", [3, 5])
    def test_record_with_a_gap_raises(self, store, nmax):
        # S_3 missing below the record's S_4, and S_1, S_2 intact
        gap = {n: v for n, v in power_sums_exact(11, 4).values.items() if n != 3}
        store.store(PowerSumTable(11, RESTRICTED, gap, METHOD_EXACT))
        with pytest.raises(CacheMismatch, match=r"S'_3\(11\): cached exact-cyclotomic gives None but exact-cyclotomic gives -?\d+$"):
            store.get_or_compute(11, nmax, METHOD_EXACT, lambda: power_sums_exact(11, nmax))

    def test_recompute_disagreement_raises(self, store):
        # S_1..S_4 intact, so the entry loads and only S_5 disagrees
        values = {**power_sums_exact(11, 5).values, 5: 999}
        store.store(PowerSumTable(11, RESTRICTED, values, METHOD_EXACT))
        with pytest.raises(CacheMismatch, match=r"S'_5\(11\)"):
            store.get_or_compute(11, 6, METHOD_EXACT, lambda: power_sums_exact(11, 6))


class TestCacheDirResolution:
    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("KLMOMENTS_CACHE_DIR", "/env/path")
        assert str(resolve_cache_dir("/flag/path")) == "/flag/path"
        assert str(resolve_cache_dir(None)) == "/env/path"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("KLMOMENTS_CACHE_DIR", raising=False)
        assert str(resolve_cache_dir(None)) == ".klmoments-cache"
