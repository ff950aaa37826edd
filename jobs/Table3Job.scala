package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.benchutil.Tables

/** spark-submit entrypoint reproducing paper Table 3 (average query time on
  * MOT / AIRCA / TPC-H for SoH/SoK/SoC with and without Zidian).
  *
  * Usage: spark-submit --class repro.jobs.Table3Job <jar> [sf]
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("zidian-table3")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .getOrCreate()
    try {
      val results = Tables.table3(spark, sf)
      println(Tables.renderTable3(results, sf))
    } finally spark.stop()
  }
}
