package repro

import org.apache.spark.sql.DataFrame
import repro.TestSchemas.{cat, r1}
import repro.core.model.BaaVSchema
import repro.kv.{BaaVStore, TaaVStore}

/** The running example's relations NATION, SUPPLIER and PARTSUPP as
  * frames, and their stores under ~R₁: built once per test run and shared
  * by every suite, so no suite caches the same frames twice.
  */
object ExampleStores {

  lazy val data: Map[String, DataFrame] = {
    val s = SparkSpec.shared
    import s.implicits._
    Map(
      "NATION"   -> Seq((1, "GERMANY"), (2, "FRANCE")).toDF("nationkey", "name"),
      "SUPPLIER" -> Seq((10L, 1), (20L, 2), (30L, 1)).toDF("suppkey", "nationkey"),
      "PARTSUPP" -> Seq(
        (100L, 10L, 5.0, 1), (101L, 10L, 7.0, 2),
        (102L, 20L, 9.0, 3),
        (103L, 30L, 2.0, 4), (104L, 30L, 4.0, 5), (105L, 30L, 6.0, 6),
      ).toDF("partkey", "suppkey", "supplycost", "availqty"),
    )
  }

  lazy val baav: BaaVStore = BaaVStore.build(r1, data)
  lazy val taav: TaaVStore = TaaVStore.build(cat, data)

  /** [[baav]] with relation `rel` replaced by `df`: only `rel`'s instances
    * are built, the others are the shared ones.
    */
  def baavWith(rel: String, df: DataFrame): BaaVStore =
    new BaaVStore(r1, baav.instances ++ BaaVStore.build(BaaVSchema(r1.kvs.filter(_.rel == rel)), Map(rel -> df)).instances)

  /** [[taav]] with relation `rel` replaced by `df`. */
  def taavWith(rel: String, df: DataFrame): TaaVStore =
    new TaaVStore(cat, taav.relations ++ TaaVStore.build(cat, Map(rel -> df)).relations)
}
