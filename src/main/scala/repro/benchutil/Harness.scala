package repro.benchutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.SqlOverNoSql
import repro.data.{Dataset, WorkQuery}
import repro.kv.{BaaVStore, Backend, KVMetrics, TaaVStore}
import repro.zidian.Zidian

/** One measured query evaluation (one mode, one query). Backend times are
  * derived from the *same* metrics — the dataflow runs once per mode and
  * the three simulated backends differ only in their cost model
  * (DESIGN.md §4).
  */
final case class QueryRun(
    dataset: String,
    query: String,
    wallSec: Double,
    gets: Long,
    values: Long,
    commCells: Long,
    scans: Long,
    scanFree: Boolean,
    bounded: Boolean,
    rows: Long,
) {
  /** Total simulated time on `backend`: measured Spark dataflow wall time
    * plus the modeled storage-access time.
    */
  def totalSec(backend: Backend, workers: Int = Backend.DefaultWorkers): Double =
    wallSec + backend.storageSeconds(metrics, workers)

  /** The run's access counters (scans aside) as [[KVMetrics]]. */
  def metrics: KVMetrics = {
    val m = new KVMetrics
    m.gets = gets; m.valuesAccessed = values; m.commCells = commCells
    m
  }

  def commMB: Double = metrics.commMB
}

/** A dataset loaded into both stores, with the two evaluation stacks. */
final class Env(
    val ds: Dataset,
    val spark: SparkSession,
    val sf: Double,
    val taav: TaaVStore,
    val baav: BaaVStore,
    val zidian: Zidian,
    val baseline: SqlOverNoSql,
) {
  def close(): Unit = {
    taav.relations.values.foreach(_.unpersist())
    baav.instances.values.foreach(_.blocked.unpersist())
  }
}

object Harness {

  def buildEnv(ds: Dataset, spark: SparkSession, sf: Double): Env = {
    val data = ds.dataAt(spark, sf)
    val taav = TaaVStore.build(ds.catalog, data)
    val baav = BaaVStore.build(ds.baavSchema, data)
    new Env(ds, spark, sf, taav, baav,
      new Zidian(ds.catalog, ds.baavSchema),
      new SqlOverNoSql(ds.catalog, spark))
  }

  /** Evaluate `wq` with the baseline, timing the answer and its collect. */
  def runBaseline(env: Env, wq: WorkQuery): QueryRun = {
    val t0 = System.nanoTime()
    val (df, m) = env.baseline.answer(wq.q, env.taav)
    collected(env, wq, t0, df, m, scanFree = false, bounded = false)
  }

  /** Evaluate `wq` with Zidian, timing the answer and its collect: a
    * scan-free plan in process, any other as Spark jobs.
    */
  def runZidian(env: Env, wq: WorkQuery): QueryRun = {
    val t0 = System.nanoTime()
    val ans = env.zidian.answer(wq.q, env.baav, env.taav, env.spark)
    collected(env, wq, t0, ans.df, ans.metrics, ans.plan.scanFree, ans.decision.bounded.getOrElse(false))
  }

  /** Collect `df`, as a client does, and stop the clock started at `t0`. */
  private def collected(env: Env, wq: WorkQuery, t0: Long, df: DataFrame, m: KVMetrics,
                        scanFree: Boolean, bounded: Boolean): QueryRun = {
    val rows = df.collect().length.toLong
    val wall = (System.nanoTime() - t0) / 1e9
    QueryRun(env.ds.name, wq.q.name, wall, m.gets, m.valuesAccessed,
             m.commCells, m.scans, scanFree, bounded, rows)
  }

  /** Run one query in both modes; `warm = true` adds one untimed warm-up
    * evaluation per mode (absorbs codegen/JIT, as cluster benchmarks do).
    */
  def runBoth(env: Env, wq: WorkQuery, warm: Boolean = false): (QueryRun, QueryRun) = {
    if (warm) { runBaseline(env, wq); runZidian(env, wq) }
    (runBaseline(env, wq), runZidian(env, wq))
  }

  // ---------------------------------------------------------- formatting

  def fmtRow(cells: Seq[String], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString(" | ")

  def fmtSec(s: Double): String = f"$s%.2f"
  def sci(x: Double): String = f"$x%.2e"
}
