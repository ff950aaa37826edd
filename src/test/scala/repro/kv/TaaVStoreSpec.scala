package repro.kv

import repro.{ExampleStores, SparkSpec}

class TaaVStoreSpec extends SparkSpec {
  private def store = ExampleStores.taav

  test("build materializes row counts") {
    assert(store.rowCount == Map("NATION" -> 2L, "SUPPLIER" -> 3L, "PARTSUPP" -> 6L))
  }

  test("cells = rows × arity") {
    assert(store.cells("SUPPLIER") == 6)
  }

  test("a scan costs one get per tuple (§3)") {
    val m = new KVMetrics
    store.scan("SUPPLIER", m)
    assert(m.gets == 3)
    assert(m.valuesAccessed == 6)
    assert(m.commCells == 6)
    assert(m.taavScans == 1)
  }

  test("scans accumulate across relations") {
    val m = new KVMetrics
    store.scan("SUPPLIER", m); store.scan("NATION", m)
    assert(m.gets == 5 && m.scans == 2)
  }

  test("unknown relations are rejected") {
    assertThrows[NoSuchElementException](store.relation("NOPE"))
  }
}
