package repro.kv

import org.apache.spark.sql.DataFrame
import repro.core.model.Catalog

/** The conventional tuple-as-a-value store of SQL-over-NoSQL systems (§3):
  * each relation is a set of KV pairs `(pk, tuple)` in a DHT. A scan costs
  * one `get` per tuple (driven by `next()`), and ships the whole relation
  * to the SQL layer.
  */
final class TaaVStore(val cat: Catalog, val relations: Map[String, DataFrame]) {

  /** Cached row counts (the store is materialized once at build time). */
  lazy val rowCount: Map[String, Long] = relations.map { case (n, df) => n -> df.count() }

  def relation(name: String): DataFrame =
    relations.getOrElse(name, throw new NoSuchElementException(s"unknown relation $name"))

  /** Cells (tuples × attributes) of a relation. */
  def cells(name: String): Long = rowCount(name) * cat(name).attrs.size

  /** Scan a full relation, recording gets/values/comm (§3: "we have to
    * blindly scan a table by incurring as many get's as the size of the
    * table").
    */
  def scan(name: String, m: KVMetrics): DataFrame = {
    val rows = rowCount(name)
    m.addGets(rows)
    m.addValues(cells(name))
    m.addComm(cells(name))
    m.taavScans += 1
    relation(name)
  }
}

object TaaVStore {
  /** Materialize (cache + count) the relations so later scans measure
    * storage access, not data generation.
    */
  def build(cat: Catalog, data: Map[String, DataFrame]): TaaVStore = {
    val cached = data.map { case (n, df) => n -> df.cache() }
    val store = new TaaVStore(cat, cached)
    store.rowCount // force materialization
    store
  }
}
