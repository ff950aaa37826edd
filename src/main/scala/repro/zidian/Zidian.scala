package repro.zidian

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.model.{Attr, BaaVSchema, Catalog}
import repro.core.planner.{Executor, PlanGen, ZPlan}
import repro.core.preserve.Preservation
import repro.core.query.{CmpConst, EqConst, Query, RelAtom}
import repro.core.scanfree.ScanFree
import repro.kv.{BaaVStore, KVMetrics, TaaVStore}
import scala.util.control.NonFatal

/** What Zidian decided about a query (modules M1/M2, §5.1–§6). */
final case class Decision(
    resultPreserving: Boolean,
    scanFree: Boolean,
    bounded: Option[Boolean],
    report: ScanFree.Report,
)

/** The evaluated answer plus the plan and storage-access metrics. */
final case class ZidianAnswer(
    df: DataFrame,
    metrics: KVMetrics,
    plan: ZPlan,
    decision: Decision,
)

/** The Zidian middleware facade (§5.1): given an SQL (RA_aggr) query on the
  * relational schema, check preservability (M1), decide scan-freeness /
  * boundedness and generate a KBA plan (M2), and execute it interleaved
  * over the BaaV store (M3), falling back to TaaV scans per alias where
  * the BaaV schema does not cover the query.
  *
  * `boundedDegree` is the degree threshold c of the boundedness decision.
  * The default covers the stable-ratio instances of MOT/AIRCA (max ≈
  * flights-per-tail = 75) and excludes anything that grows with |D|.
  */
final class Zidian(val cat: Catalog, val schema: BaaVSchema,
                   val boundedDegree: Long = 100) {

  /** M1/M2 static decisions (no store access beyond degrees). */
  def decide(q: Query, store: Option[BaaVStore]): (Decision, ZPlan) = {
    checkAttrs(q)
    checkConstants(q)
    val report = ScanFree.check(q, schema, cat)
    val rp = Preservation.isResultPreserving(report.minimized, schema, cat)
    val plan = PlanGen.planFrom(report, schema, cat)
    val bounded = store.map { s =>
      plan.scanFree && plan.usedInstances.forall(n => s(n).degree <= boundedDegree)
    }
    (Decision(rp, plan.scanFree, bounded, report), plan)
  }

  /** Reject an attribute whose alias is not in the query's FROM clause, or
    * whose column its alias's relation lacks, before the chase reasons
    * about it.
    */
  private def checkAttrs(q: Query): Unit = q.allAttrs.toSeq.sortBy(_.qname).foreach { a =>
    val rel = q.atoms.collectFirst { case RelAtom(r, a.alias) => r }.getOrElse(
      throw new IllegalArgumentException(s"${q.name}: ${a.qname} names alias ${a.alias}, which is " +
        s"not in FROM (${q.atoms.map(at => s"${at.rel} ${at.alias}").mkString(", ")})"))
    if (!cat.contains(rel) || !cat(rel).attrs.contains(a.col)) throw new IllegalArgumentException(
      s"${q.name}: ${a.qname} names no column of relation $rel (alias ${a.alias})")
  }

  /** Reject a constant its column's type cannot hold before any plan runs,
    * instead of failing inside the first Spark job that casts it.
    */
  private def checkConstants(q: Query): Unit = q.preds.foreach {
    case EqConst(a, v)     => checkConstant(q, a, v)
    case CmpConst(a, _, v) => checkConstant(q, a, v)
    case _                 => ()
  }

  private def checkConstant(q: Query, a: Attr, v: String): Unit = {
    val t = q.typeOf(a, cat)
    val ok = try Executor.constant(v, t) != null catch { case NonFatal(_) => false }
    if (!ok) throw new IllegalArgumentException(
      s"${q.name}: constant '$v' of ${a.qname} is not a value of its column type " +
        Executor.sparkType(t).sql)
  }

  /** Plan and execute `q` over the stores. Storage-access metrics are
    * recorded while the plan is interpreted. A scan-free plan reads the
    * store only through key lookups (Prop. 7), so it runs in process and
    * the returned DataFrame is a local relation of the answer's rows. Any
    * other plan is Spark's scans and joins over its scanned instances and
    * relations, with its scan-free sub-plans (every `∝` among them) run in
    * process; its answer is materialized lazily, by the client's action.
    * Boundedness is reported in the decision and does not pick the path.
    */
  def answer(q: Query, baav: BaaVStore, taav: TaaVStore, spark: SparkSession): ZidianAnswer = {
    val (decision, plan) = decide(q, Some(baav))
    val exec = new Executor(spark, cat, baav, taav)
    ZidianAnswer(exec.run(plan), exec.metrics, plan, decision)
  }
}
