package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.benchutil.Tables

/** spark-submit entrypoint reproducing paper Table 2 (case study Q1).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job <jar> [sf]
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("zidian-table2")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .getOrCreate()
    try {
      val (base, zid) = Tables.table2(spark, sf)
      println(Tables.renderTable2(base, zid, sf))
    } finally spark.stop()
  }
}
