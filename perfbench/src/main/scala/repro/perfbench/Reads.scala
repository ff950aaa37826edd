package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.planner.AliasMode
import repro.core.query.Query
import repro.kv.{BaaVStore, TaaVStore}
import scala.util.control.NonFatal

/** One generated read: a query over one loaded dataset, against given
  * states of its two stores (they differ from the built ones after writes).
  */
final case class ReadOp(env: Loaded, q: Query, baav: BaaVStore, taav: TaaVStore, traced: Boolean)

/** A read as Zidian answered it: wall time from `Zidian.answer` until the
  * rows are collected, the paper's access counters, and the canonical rows.
  */
final case class ZRead(op: ReadOp, ms: Double, rows: Vector[String], gets: Long,
                       dataCells: Long, commCells: Long, scans: Long,
                       scanFreeAliases: Int, aliases: Int, error: Option[String])

/** The same read as the baseline answered it. */
final case class BRead(op: ReadOp, ms: Double, rows: Vector[String], dataCells: Long,
                       error: Option[String])

object Reads {
  private def ms(t0: Long): Double = (System.nanoTime - t0) / 1e6

  private def describe(e: Throwable): String =
    s"${e.getClass.getSimpleName}: ${Option(e.getMessage).getOrElse("").linesIterator.take(1).mkString}"

  def zidian(op: ReadOp, spark: SparkSession, tracer: Tracer): ZRead = {
    val env = op.env
    val t0 = System.nanoTime
    try {
      val (ans, rows) =
        if (!op.traced) {
          val a = env.zidian.answer(op.q, op.baav, op.taav, spark)
          (a, a.df.collect())
        } else {
          tracer.span("read") {
            tracer.span("plan.decide")(env.zidian.decide(op.q, Some(op.baav)))
            val a = tracer.span("exec.answer")(env.zidian.answer(op.q, op.baav, op.taav, spark))
            val r = tracer.spanWith("exec.collect")(a.df.collect())(r => Map("rows" -> r.length.toDouble))
            (a, r)
          }
        }
      val t = ms(t0)
      val m = ans.metrics
      val modes = ans.plan.aliasModes.values
      ZRead(op, t, Canon(ans.df.columns.toSeq, rows), m.gets, m.valuesAccessed, m.commCells,
            m.scans, modes.count(_ == AliasMode.ScanFreeFetch), modes.size, None)
    } catch {
      case NonFatal(e) => ZRead(op, ms(t0), Vector.empty, 0, 0, 0, 0, 0, 0, Some(describe(e)))
    }
  }

  def baseline(op: ReadOp, spark: SparkSession, tracer: Tracer): BRead = {
    val env = op.env
    op.taav.rowCount // a new store state counts its rows once, before timing
    val t0 = System.nanoTime
    try {
      val ((df, m), rows) =
        if (!op.traced) {
          val r = env.baseline.answer(op.q, op.taav)
          (r, r._1.collect())
        } else {
          tracer.span("baseline") {
            val r = tracer.span("baseline.answer")(env.baseline.answer(op.q, op.taav))
            (r, tracer.span("baseline.collect")(r._1.collect()))
          }
        }
      BRead(op, ms(t0), Canon(df.columns.toSeq, rows), m.valuesAccessed, None)
    } catch {
      case NonFatal(e) => BRead(op, ms(t0), Vector.empty, 0, Some(describe(e)))
    }
  }

  /** Why a Zidian read does not match the baseline's, if it does not. */
  def mismatch(z: ZRead, b: BRead): Option[String] =
    z.error.map(e => s"zidian failed: $e")
      .orElse(b.error.map(e => s"baseline failed: $e"))
      .orElse(if (z.rows == b.rows) None
              else Some(s"answers differ: zidian ${z.rows.size} rows, baseline ${b.rows.size} rows; " +
                        s"first zidian-only ${z.rows.diff(b.rows).take(2)}, " +
                        s"first baseline-only ${b.rows.diff(z.rows).take(2)}"))
}
