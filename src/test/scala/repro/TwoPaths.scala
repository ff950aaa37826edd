package repro

import org.apache.spark.sql.{Row, SparkSession}
import org.scalatest.Assertions
import repro.baseline.SqlOverNoSql
import repro.core.query.Query
import repro.kv.{BaaVStore, KVMetrics, TaaVStore}
import repro.zidian.Zidian

/** Answers a query on two paths — Zidian's, in process over the BaaV store
  * when its plan is scan-free and as Spark jobs otherwise, and the
  * baseline's SparkSQL over the TaaV store — and asserts they give the same
  * answer, and that Zidian scans nothing exactly when its plan is scan-free.
  */
object TwoPaths extends Assertions {

  /** The canonical answer rows and Zidian's counters. The answers must have
    * the same column names and data types and the same bag of collected
    * rows. Zidian's plan must be scan-free exactly when `scanFree` is set.
    */
  def check(z: Zidian, q: Query, baav: BaaVStore, taav: TaaVStore,
            spark: SparkSession, scanFree: Boolean = true): (Seq[String], KVMetrics) = {
    val ans = z.answer(q, baav, taav, spark)
    assert(ans.plan.scanFree == scanFree, s"${q.name} must${if (scanFree) "" else " not"} be scan-free")
    val (got, want) = (ans.df, new SqlOverNoSql(z.cat, spark).answer(q, taav)._1)
    assert(got.columns.toSeq == want.columns.toSeq, s"${q.name}: the columns differ from the baseline's")
    assert(got.schema.map(_.dataType) == want.schema.map(_.dataType),
           s"${q.name}: the column types differ from the baseline's")
    val (gotRows, wantRows) = (got.collect().toSeq, want.collect().toSeq)
    def bag(rows: Seq[Row]) = rows.groupBy(identity).view.mapValues(_.size).toMap
    assert(bag(gotRows) == bag(wantRows), s"${q.name}: the rows differ from the baseline's: $gotRows vs $wantRows")
    assert((ans.metrics.scans == 0) == scanFree,
           s"${q.name}: ${ans.metrics.scans} scans by a plan with scanFree = $scanFree")
    (Oracle.canon(got.columns.toSeq, gotRows), ans.metrics)
  }
}
