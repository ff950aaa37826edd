package repro.core.planner

import repro.core.model.{BaaVSchema, Catalog, KVSchema}
import repro.core.query.{EqAttr, Query}
import repro.core.scanfree.{ChaseResult, ConstSrc, ScanFree, StepSrc}
import scala.collection.mutable

/** Chase-based KBA plan generation (§6.2, Example 7).
  *
  * The chasing sequence recorded by [[repro.core.scanfree.Chase]] is
  * interpreted as ∝/⋈ operations: each rule-(c) step `T_i` becomes an
  * extension whose input joins the plans of the steps (or constants)
  * supplying its key attributes. Per alias we pick the step covering
  * `X^{min(Q)}_R`; aliases not scan-free fall back to a KV-instance scan
  * (clo-reconstructed by joining scans of pk-keyed instances if needed),
  * and finally to a TaaV relation scan — module M1's "existing SQL layer"
  * path. So every extension has a scan-free input.
  */
object PlanGen {

  /** Generate a plan for `q` over `schema`; uses the scan-free report's
    * minimized query and chase.
    */
  def plan(q: Query, schema: BaaVSchema, cat: Catalog): ZPlan = {
    val report = ScanFree.check(q, schema, cat)
    planFrom(report, schema, cat)
  }

  def planFrom(report: ScanFree.Report, schema: BaaVSchema, cat: Catalog): ZPlan = {
    val qm = report.minimized.query
    val chase = report.chase
    val stepPlans = buildStepPlans(chase)

    val aliasPlans = mutable.LinkedHashMap.empty[String, (KPlan, AliasMode.Value)]
    for (at <- qm.atoms) {
      val needCols: Set[String] = qm.attrsOf(at.alias).map(_.col)
      aliasPlans(at.alias) = aliasPlan(at.alias, at.rel, needCols, chase, stepPlans, schema, cat)
    }

    // Combine per-alias plans, dropping plans whose alias-qualified
    // attributes are already produced by an included plan (the chain
    // T1 ⊂ T2 ⊂ T3 of Example 7(d) collapses to T3).
    val ordered = aliasPlans.toSeq.sortBy { case (_, (p, _)) => -p.outAttrs.size }
    var body: Option[KPlan] = None
    for ((alias, (p, _)) <- ordered) {
      val needed = qm.attrsOf(alias)
      body match {
        case None => body = Some(p)
        case Some(acc) =>
          if (!needed.subsetOf(acc.outAttrs)) {
            val on = qm.preds.collect {
              case EqAttr(a, b) if acc.outAttrs.contains(a) && p.outAttrs.contains(b) => (a, b)
              case EqAttr(a, b) if acc.outAttrs.contains(b) && p.outAttrs.contains(a) => (b, a)
            }
            body = Some(KJoin(acc, p, on.distinct))
          }
      }
    }
    ZPlan(body.getOrElse(KConst(Nil)), qm, aliasPlans.map { case (a, (_, m)) => a -> m }.toMap)
  }

  /** Plan of one chasing step `T_i`: join the plans of its source steps
    * (cross-joining independent chains), then extend with the step's KV
    * schema; constants feed the extension's key directly.
    */
  private def buildStepPlans(chase: ChaseResult): Map[Int, KPlan] = {
    val memo = mutable.Map.empty[Int, KPlan]
    def planOf(id: Int): KPlan = memo.getOrElseUpdate(id, {
      val step = chase.steps(id)
      val srcSteps = step.keySources.collect { case (_, StepSrc(sid, _)) => sid }.distinct
      val input: KPlan =
        if (srcSteps.isEmpty) KConst(Nil)
        else srcSteps.map(planOf).reduce((l, r) => KJoin(l, r, Nil))
      val keyMap = step.keySources.map {
        case (c, StepSrc(_, a))   => c -> (FromAttr(a): KeySrc)
        case (c, ConstSrc(v, a))  => c -> (FromConst(v, a): KeySrc)
      }
      KExtend(input, step.alias, step.kv, keyMap)
    })
    chase.steps.indices.foreach(planOf)
    memo.toMap
  }

  /** Fallback ladder for one alias (DESIGN.md §3). */
  private def aliasPlan(
      alias: String,
      rel: String,
      needCols: Set[String],
      chase: ChaseResult,
      stepPlans: Map[Int, KPlan],
      schema: BaaVSchema,
      cat: Catalog,
  ): (KPlan, AliasMode.Value) =
    // (1) scan-free: one chase step whose KV schema covers the needed cols.
    chase.stepsFor(alias).find(s => needCols.subsetOf(s.kv.attrs.toSet)) match {
      case Some(s) => (stepPlans(s.id), AliasMode.ScanFreeFetch)
      case None =>
        // (2) KV scans: the first instance, covering ones first, that
        //     `reconstruct` completes.
        schema.forRel(rel).sortBy(kv => !needCols.subsetOf(kv.attrs.toSet)).iterator
          .flatMap(reconstruct(alias, _, needCols, schema, cat)).nextOption() match {
          case Some(p: KScanKV) => (p, AliasMode.KVScan)
          case Some(p)          => (p, AliasMode.KVScanJoin)
          case None =>
            // (3) the existing SQL layer: TaaV relation scan.
            (KScanRel(alias, rel, cat(rel).attrs), AliasMode.TaaVScan)
        }
    }

  /** A scan of `kv0`, joined to scans of instances keyed by a superkey of
    * the relation's primary key until `needCols` are covered (the
    * clo-reconstruction of Condition II).
    */
  private def reconstruct(alias: String, kv0: KVSchema, needCols: Set[String],
                          schema: BaaVSchema, cat: Catalog): Option[KPlan] = {
    val relPk = cat(kv0.rel).pk.toSet
    var plan: KPlan = KScanKV(alias, kv0)
    var have = kv0.attrs.toSet
    var missing = needCols.diff(have)
    var progress = true
    while (missing.nonEmpty && progress) {
      progress = false
      // Only join instances keyed by a superkey of the relation: joining
      // partial tuples on a non-unique key would multiply them.
      schema.forRel(kv0.rel).find { kv =>
        kv.key.toSet.subsetOf(have) && relPk.nonEmpty &&
          relPk.subsetOf(kv.key.toSet) && kv.attrs.exists(missing.contains)
      } match {
        case Some(kv) =>
          plan = KJoin(plan, KScanKV(alias, kv), Nil)
          have ++= kv.attrs
          missing = needCols.diff(have)
          progress = true
        case None => ()
      }
    }
    if (missing.isEmpty) Some(plan) else None
  }
}
