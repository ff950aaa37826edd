package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.Assertions
import repro.core.query.Query
import repro.kv.{BaaVStore, KVMetrics, TaaVStore}
import repro.zidian.Zidian

/** Runs a bounded query on both execution paths — in process, and as
  * Spark jobs (the same planner with `boundedDegree = 0`, which makes no
  * plan bounded) — and asserts they give the same answer and the same
  * storage counters.
  */
object TwoPaths extends Assertions {

  /** The canonical answer rows and the counters of the in-process run.
    * The answers must have the same column names and data types, the same
    * bag of collected rows, and the same canonical rows.
    */
  def check(z: Zidian, q: Query, baav: BaaVStore, taav: TaaVStore,
            spark: SparkSession): (Seq[String], KVMetrics) = {
    val inProcess = z.answer(q, baav, taav, spark)
    val onSpark = new Zidian(z.cat, z.schema, boundedDegree = 0).answer(q, baav, taav, spark)
    try {
      assert(inProcess.decision.bounded.contains(true), s"${q.name} must be bounded")
      assert(onSpark.decision.bounded.contains(false), s"${q.name} must run as Spark jobs")
      val (got, want) = (inProcess.df, onSpark.df)
      assert(got.columns.toSeq == want.columns.toSeq, s"${q.name}: the two paths' columns differ")
      assert(got.schema.map(_.dataType) == want.schema.map(_.dataType),
             s"${q.name}: the two paths' column types differ")
      val (gotRows, wantRows) = (got.collect().toSeq, want.collect().toSeq)
      def bag(rows: Seq[org.apache.spark.sql.Row]) = rows.groupBy(identity).view.mapValues(_.size).toMap
      assert(bag(gotRows) == bag(wantRows),
             s"${q.name}: the two paths' rows differ: $gotRows vs $wantRows")
      val rows = Oracle.canon(got.columns.toSeq, gotRows)
      assert(rows == Oracle.canon(want.columns.toSeq, wantRows), s"${q.name}: the two paths' answers differ")
      def counters(m: KVMetrics) = (m.gets, m.valuesAccessed, m.commCells, m.scans)
      assert(counters(inProcess.metrics) == counters(onSpark.metrics),
             s"${q.name}: (gets, #data, comm, scans) differ between the paths")
      (rows, inProcess.metrics)
    } finally onSpark.executor.cleanup()
  }
}
