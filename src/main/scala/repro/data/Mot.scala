package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.model._
import repro.core.model.ColType._

/** Synthetic stand-in for the UK MOT dataset (§9): anonymized vehicle test
  * records — 3 tables (vehicle / test / item) with zipf-skewed makes and
  * regions, and *stable bounded* degrees on vehicle→test (3) and test→item
  * (2), which is what makes the paper's MOT q1–q6 bounded queries bounded
  * (DESIGN.md §4 documents this substitution).
  */
object Mot {
  private val NVehPerSf  =   400_000L
  private val NTestPerSf = 1_200_000L
  private val NItemPerSf = 2_400_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** Zipf-ish skewed integer in [1, k]: cube of a uniform concentrates mass
    * near 1.
    */
  private def skewed(k: Int, seed: Long) =
    (pow(rand(seed), 3.0) * k + 1).cast(IntegerType)

  def vehicle(spark: SparkSession, sf: Double = 0.01, seed: Long = 10): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NVehPerSf, sf) + 1).toDF("v_id").select(
      $"v_id",
      concat(lit("MAKE_"), skewed(40, seed).cast(StringType))        as "v_make",
      concat(lit("MODEL_"), (rand(seed + 1) * 6 + 1).cast(IntegerType).cast(StringType))
                                                                     as "v_model",
      element_at(array(lit("PETROL"), lit("DIESEL"), lit("HYBRID"), lit("ELECTRIC")),
                 (rand(seed + 2) * 4 + 1).cast("int"))               as "v_fuel",
      element_at(array(lit("RED"), lit("BLUE"), lit("BLACK"), lit("WHITE"),
                       lit("SILVER"), lit("GREEN")),
                 (rand(seed + 3) * 6 + 1).cast("int"))               as "v_colour",
      (rand(seed + 4) * 25 + 1990).cast(IntegerType)                 as "v_year",
      (rand(seed + 5) * 2500 + 500).cast(IntegerType)                as "v_cc",
    )
  }

  def test(spark: SparkSession, sf: Double = 0.01, seed: Long = 11): DataFrame = {
    import spark.implicits._
    val nVeh = n(NVehPerSf, sf)
    spark.range(1, n(NTestPerSf, sf) + 1).toDF("t_id").select(
      $"t_id",
      (($"t_id" - 1) % nVeh + 1)                                     as "t_vid",
      (rand(seed) * 5 + 2007).cast(IntegerType)                      as "t_year",
      (rand(seed + 1) * 7 + 1).cast(IntegerType)                     as "t_class",
      element_at(array(lit("NT"), lit("RT")),
                 (rand(seed + 2) * 2 + 1).cast("int"))               as "t_type",
      when(rand(seed + 3) < 0.7, "P").when(rand(seed + 3) < 0.9, "F")
        .otherwise("PRS")                                            as "t_result",
      (rand(seed + 4) * 200000).cast(IntegerType)                    as "t_odometer",
      concat(lit("REGION_"), skewed(13, seed + 5).cast(StringType))  as "t_region",
    )
  }

  def item(spark: SparkSession, sf: Double = 0.01, seed: Long = 12): DataFrame = {
    val nTest = n(NTestPerSf, sf)
    spark.range(n(NItemPerSf, sf)).select(
      (col("id") % nTest + 1)                                        as "it_tid",
      skewed(200, seed)                                              as "it_rfr",
      element_at(array(lit("MINOR"), lit("MAJOR"), lit("DANGEROUS")),
                 (rand(seed + 1) * 3 + 1).cast("int"))               as "it_severity",
      element_at(array(lit("FRONT"), lit("REAR"), lit("NEARSIDE"), lit("OFFSIDE"),
                       lit("CENTRE"), lit("ALL")),
                 (rand(seed + 2) * 6 + 1).cast("int"))               as "it_loc",
    )
  }

  val catalog: Catalog = Catalog(Seq(
    RelSchema("vehicle", Seq(
      "v_id" -> LongT, "v_make" -> StringT, "v_model" -> StringT, "v_fuel" -> StringT,
      "v_colour" -> StringT, "v_year" -> IntT, "v_cc" -> IntT), pk = Seq("v_id")),
    RelSchema("test", Seq(
      "t_id" -> LongT, "t_vid" -> LongT, "t_year" -> IntT, "t_class" -> IntT,
      "t_type" -> StringT, "t_result" -> StringT, "t_odometer" -> IntT,
      "t_region" -> StringT), pk = Seq("t_id")),
    RelSchema("item", Seq(
      "it_tid" -> LongT, "it_rfr" -> IntT, "it_severity" -> StringT,
      "it_loc" -> StringT), pk = Nil),
  ))

  /** 8 KV schemas, matching the paper's MOT setup size. */
  val baavSchema: BaaVSchema = BaaVSchema(Seq(
    KVSchema("veh_by_id",   "vehicle", Seq("v_id"),
             Seq("v_make", "v_model", "v_fuel", "v_colour", "v_year", "v_cc")),
    KVSchema("veh_by_make", "vehicle", Seq("v_make"),
             Seq("v_id", "v_model", "v_fuel", "v_year")),
    KVSchema("veh_by_fuel", "vehicle", Seq("v_fuel"), Seq("v_id", "v_make", "v_year")),
    KVSchema("test_by_id",  "test",    Seq("t_id"),
             Seq("t_vid", "t_year", "t_class", "t_type", "t_result", "t_odometer", "t_region")),
    KVSchema("test_by_vid", "test",    Seq("t_vid"),
             Seq("t_id", "t_year", "t_result", "t_odometer")),
    KVSchema("test_by_region", "test", Seq("t_region"),
             Seq("t_id", "t_vid", "t_year", "t_result")),
    KVSchema("item_by_tid", "item",    Seq("it_tid"), Seq("it_rfr", "it_severity", "it_loc")),
    KVSchema("item_by_rfr", "item",    Seq("it_rfr"), Seq("it_tid", "it_severity")),
  ))

  def data(spark: SparkSession, sf: Double): Map[String, DataFrame] = Map(
    "vehicle" -> vehicle(spark, sf),
    "test"    -> test(spark, sf),
    "item"    -> item(spark, sf),
  )
}
