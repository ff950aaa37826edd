package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SynthData
import repro.core.model._
import repro.core.model.ColType._

/** TPC-H-lite: extends [[repro.SynthData]] with the supplier / partsupp /
  * nation tables needed by the paper's case-study query Q1 (≈ TPC-H q11,
  * Example 3) and the TPC-H workload of §9. Deterministic in (sf, seed).
  */
object TpchLite {
  private val NSupplierPerSf = 10_000L
  private val NPartsuppPerSf = 800_000L
  private val NPartPerSf     = 200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** The 25 TPC-H nations (nationkey 0–24). */
  val nationNames: Seq[String] = Seq(
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES")

  def nation(spark: SparkSession): DataFrame = {
    import spark.implicits._
    nationNames.zipWithIndex.map { case (name, k) => (k, name) }
      .toDF("n_nationkey", "n_name")
  }

  def supplier(spark: SparkSession, sf: Double = 0.01, seed: Long = 6): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NSupplierPerSf, sf) + 1).toDF("s_suppkey").select(
      $"s_suppkey",
      (rand(seed) * 25).cast(IntegerType)    as "s_nationkey",
      round(rand(seed + 1) * 9000 + 999, 2)  as "s_acctbal",
    )
  }

  def partsupp(spark: SparkSession, sf: Double = 0.01, seed: Long = 7): DataFrame = {
    val nSupp = n(NSupplierPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NPartsuppPerSf, sf)).select(
      (col("id") % nPart + 1)                            as "ps_partkey",
      (rand(seed) * nSupp + 1).cast(LongType)            as "ps_suppkey",
      round(rand(seed + 1) * 1000 + 1, 2)                as "ps_supplycost",
      (rand(seed + 2) * 9999 + 1).cast(IntegerType)      as "ps_availqty",
    )
  }

  /** Relational catalog of the TPC-H-lite schema (provided + extension). */
  val catalog: Catalog = Catalog(Seq(
    RelSchema("lineitem", Seq(
      "l_orderkey" -> LongT, "l_partkey" -> LongT, "l_linenumber" -> IntT,
      "l_quantity" -> DoubleT, "l_extendedprice" -> DoubleT, "l_discount" -> DoubleT,
      "l_tax" -> DoubleT, "l_returnflag" -> StringT, "l_linestatus" -> StringT,
      "l_shipdate" -> DateT), pk = Nil),
    RelSchema("orders", Seq(
      "o_orderkey" -> LongT, "o_custkey" -> LongT, "o_orderstatus" -> StringT,
      "o_totalprice" -> DoubleT, "o_orderdate" -> DateT), pk = Seq("o_orderkey")),
    RelSchema("customer", Seq(
      "c_custkey" -> LongT, "c_nationkey" -> IntT, "c_acctbal" -> DoubleT,
      "c_mktsegment" -> StringT), pk = Seq("c_custkey")),
    RelSchema("part", Seq(
      "p_partkey" -> LongT, "p_type" -> StringT, "p_size" -> IntT,
      "p_retailprice" -> DoubleT), pk = Seq("p_partkey")),
    RelSchema("supplier", Seq(
      "s_suppkey" -> LongT, "s_nationkey" -> IntT, "s_acctbal" -> DoubleT),
      pk = Seq("s_suppkey")),
    RelSchema("partsupp", Seq(
      "ps_partkey" -> LongT, "ps_suppkey" -> LongT, "ps_supplycost" -> DoubleT,
      "ps_availqty" -> IntT), pk = Nil),
    RelSchema("nation", Seq(
      "n_nationkey" -> IntT, "n_name" -> StringT), pk = Seq("n_nationkey")),
  ))

  /** The BaaV schema ~R₁ of Examples 1/3 plus covering schemas for the rest
    * of the workload (all include their relation's pk, preserving bag
    * semantics under blocking).
    */
  val baavSchema: BaaVSchema = BaaVSchema(Seq(
    KVSchema("nation_by_name",  "nation",   Seq("n_name"),       Seq("n_nationkey")),
    KVSchema("nation_by_key",   "nation",   Seq("n_nationkey"),  Seq("n_name")),
    KVSchema("supplier_by_nation", "supplier", Seq("s_nationkey"),
             Seq("s_suppkey", "s_acctbal")),
    KVSchema("partsupp_by_supp", "partsupp", Seq("ps_suppkey"),
             Seq("ps_partkey", "ps_supplycost", "ps_availqty")),
    KVSchema("customer_by_seg", "customer", Seq("c_mktsegment"),
             Seq("c_custkey", "c_nationkey", "c_acctbal")),
    KVSchema("orders_by_cust",  "orders",   Seq("o_custkey"),
             Seq("o_orderkey", "o_orderstatus", "o_totalprice", "o_orderdate")),
    KVSchema("lineitem_by_order", "lineitem", Seq("l_orderkey"),
             Seq("l_partkey", "l_linenumber", "l_quantity", "l_extendedprice",
                 "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate")),
    KVSchema("part_by_key",     "part",     Seq("p_partkey"),
             Seq("p_type", "p_size", "p_retailprice")),
  ))

  /** All TPC-H-lite relations at scale factor `sf`. */
  def data(spark: SparkSession, sf: Double): Map[String, DataFrame] = Map(
    "lineitem" -> SynthData.lineitem(spark, sf),
    "orders"   -> SynthData.orders(spark, sf),
    "customer" -> SynthData.customer(spark, sf),
    "part"     -> SynthData.part(spark, sf),
    "supplier" -> supplier(spark, sf),
    "partsupp" -> partsupp(spark, sf),
    "nation"   -> nation(spark),
  )
}
