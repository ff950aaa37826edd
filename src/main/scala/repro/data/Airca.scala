package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.model._
import repro.core.model.ColType._

/** Synthetic stand-in for the US Air-Carrier dataset (§9): 7 tables —
  * flight / carrier / airport / plane / route / carrier_stats / period —
  * with skewed carriers and a fact-to-dimension join topology. Degrees of
  * the instances used by bounded queries are stable across scale factors
  * (flights-per-tail is a fixed ratio), matching the paper's "stable and
  * bounded degrees" observation (DESIGN.md §4).
  */
object Airca {
  private val NFlightPerSf = 1_500_000L
  private val NPlanePerSf  =    20_000L
  private val NCarriers    = 30
  private val NAirports    = 100
  private val Years        = 1995 to 2002

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  private def skewed(k: Int, seed: Long) =
    (pow(rand(seed), 3.0) * k + 1).cast(IntegerType)

  private def code(prefix: String, c: org.apache.spark.sql.Column) =
    concat(lit(prefix), c.cast(StringType))

  def flight(spark: SparkSession, sf: Double = 0.01, seed: Long = 20): DataFrame = {
    import spark.implicits._
    val nPlanes = n(NPlanePerSf, sf)
    spark.range(1, n(NFlightPerSf, sf) + 1).toDF("f_id").select(
      $"f_id",
      code("CA", skewed(NCarriers, seed))                        as "f_carrier",
      code("AP", (rand(seed + 1) * NAirports + 1).cast(IntegerType)) as "f_origin",
      code("AP", (rand(seed + 2) * NAirports + 1).cast(IntegerType)) as "f_dest",
      // Deterministic modulo keeps flights-per-tail a stable bounded ratio
      // across scale factors (the paper's "stable and bounded degrees").
      code("T", ($"f_id" - 1) % nPlanes + 1)                     as "f_tail",
      (rand(seed + 4) * Years.size + Years.head).cast(IntegerType) as "f_year",
      (rand(seed + 5) * 130 - 10).cast(IntegerType)              as "f_depdelay",
      (rand(seed + 6) * 140 - 15).cast(IntegerType)              as "f_arrdelay",
      when(rand(seed + 7) < 0.03, 1).otherwise(0)                as "f_cancelled",
    )
  }

  def carrier(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (1 to NCarriers).map { k =>
      (s"CA$k", s"CARRIER_NAME_$k", s"GROUP_${(k - 1) % 4 + 1}")
    }.toDF("ca_code", "ca_name", "ca_group")
  }

  def airport(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (1 to NAirports).map { k =>
      (s"AP$k", s"CITY_$k", s"ST${(k - 1) % 50 + 1}")
    }.toDF("ap_code", "ap_city", "ap_state")
  }

  def plane(spark: SparkSession, sf: Double = 0.01, seed: Long = 21): DataFrame = {
    spark.range(1, n(NPlanePerSf, sf) + 1).toDF("id").select(
      code("T", col("id"))                                       as "pl_tail",
      code("CA", skewed(NCarriers, seed))                        as "pl_carrier",
      (rand(seed + 1) * 30 + 1975).cast(IntegerType)             as "pl_year",
      element_at(array(lit("NARROW"), lit("WIDE"), lit("REGIONAL"), lit("TURBOPROP")),
                 (rand(seed + 2) * 4 + 1).cast("int"))           as "pl_type",
    )
  }

  /** One route per ordered airport pair (fixed dimension, 10 000 rows). */
  def route(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (for (o <- 1 to NAirports; d <- 1 to NAirports)
      yield (s"AP$o", s"AP$d", ((o * 37 + d * 101) % 4800 + 200)))
      .toDF("r_origin", "r_dest", "r_distance")
  }

  def carrierStats(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (for (k <- 1 to NCarriers; y <- Years)
      yield (s"CA$k", y, (k * 100000L + y * 13L) % 5000000L + 100000L,
             (k * 733L + y * 7L) % 90000L + 1000L))
      .toDF("cs_carrier", "cs_year", "cs_pax", "cs_freight")
  }

  def period(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Years.map(y => (y, s"FY$y", if (y % 4 == 0) 366 else 365))
      .toDF("pe_year", "pe_label", "pe_days")
  }

  val catalog: Catalog = Catalog(Seq(
    RelSchema("flight", Seq(
      "f_id" -> LongT, "f_carrier" -> StringT, "f_origin" -> StringT,
      "f_dest" -> StringT, "f_tail" -> StringT, "f_year" -> IntT,
      "f_depdelay" -> IntT, "f_arrdelay" -> IntT, "f_cancelled" -> IntT),
      pk = Seq("f_id")),
    RelSchema("carrier", Seq(
      "ca_code" -> StringT, "ca_name" -> StringT, "ca_group" -> StringT),
      pk = Seq("ca_code")),
    RelSchema("airport", Seq(
      "ap_code" -> StringT, "ap_city" -> StringT, "ap_state" -> StringT),
      pk = Seq("ap_code")),
    RelSchema("plane", Seq(
      "pl_tail" -> StringT, "pl_carrier" -> StringT, "pl_year" -> IntT,
      "pl_type" -> StringT), pk = Seq("pl_tail")),
    RelSchema("route", Seq(
      "r_origin" -> StringT, "r_dest" -> StringT, "r_distance" -> IntT),
      pk = Seq("r_origin", "r_dest")),
    RelSchema("carrier_stats", Seq(
      "cs_carrier" -> StringT, "cs_year" -> IntT, "cs_pax" -> LongT,
      "cs_freight" -> LongT), pk = Seq("cs_carrier", "cs_year")),
    RelSchema("period", Seq(
      "pe_year" -> IntT, "pe_label" -> StringT, "pe_days" -> IntT),
      pk = Seq("pe_year")),
  ))

  /** 8 KV schemas, as extracted by T2B in the paper's AIRCA setup. */
  val baavSchema: BaaVSchema = BaaVSchema(Seq(
    KVSchema("flight_by_id",  "flight", Seq("f_id"),
             Seq("f_carrier", "f_origin", "f_dest", "f_tail", "f_year",
                 "f_depdelay", "f_arrdelay", "f_cancelled")),
    KVSchema("flight_by_tail", "flight", Seq("f_tail"), Seq("f_id", "f_year", "f_depdelay")),
    KVSchema("carrier_by_code", "carrier", Seq("ca_code"), Seq("ca_name", "ca_group")),
    KVSchema("airport_by_code", "airport", Seq("ap_code"), Seq("ap_city", "ap_state")),
    KVSchema("plane_by_tail", "plane", Seq("pl_tail"),
             Seq("pl_carrier", "pl_year", "pl_type")),
    KVSchema("route_by_od", "route", Seq("r_origin", "r_dest"), Seq("r_distance")),
    KVSchema("stats_by_cy", "carrier_stats", Seq("cs_carrier", "cs_year"),
             Seq("cs_pax", "cs_freight")),
    KVSchema("period_by_year", "period", Seq("pe_year"), Seq("pe_label", "pe_days")),
  ))

  def data(spark: SparkSession, sf: Double): Map[String, DataFrame] = Map(
    "flight"        -> flight(spark, sf),
    "carrier"       -> carrier(spark),
    "airport"       -> airport(spark),
    "plane"         -> plane(spark, sf),
    "route"         -> route(spark),
    "carrier_stats" -> carrierStats(spark),
    "period"        -> period(spark),
  )
}
