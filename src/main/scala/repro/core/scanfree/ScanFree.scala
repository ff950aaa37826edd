package repro.core.scanfree

import repro.core.model.{Attr, BaaVSchema, Catalog}
import repro.core.preserve.Closure
import repro.core.query.{Minimize, Query}

/** Condition (III), §6.1: deciding scan-free SPC/RA_aggr queries.
  *
  * For RA_aggr queries this checks the effective syntax of Theorem 5: the
  * max SPC sub-query (the SPC body of our AST) must satisfy Condition
  * (III) over the minimal equivalent query.
  */
object ScanFree {

  /** Per-alias verdicts plus the chase and minimization artifacts (reused
    * by plan generation).
    */
  final case class Report(
      scanFree: Boolean,
      perAlias: Map[String, Boolean],
      minimized: Minimize.MinResult,
      chase: ChaseResult,
      vc: Map[String, Seq[Set[String]]],
  )

  /** `VC(Q, ~𝐑)` for one alias: the closures of the KV schemas of the
    * alias's relation whose attributes all lie in GET (§6.1).
    */
  private def vcFor(alias: String, rel: String, chase: ChaseResult,
                    schema: BaaVSchema, cat: Catalog): Seq[Set[String]] = {
    val getCols = chase.getCols(alias)
    val rq = schema.forRel(rel).filter(_.attrs.toSet.subsetOf(getCols))
    rq.map(s => Closure.clo(s, rq, cat))
  }

  /** Check Condition (III): for each relation occurrence of `min(Q)` there
    * is a `W ∈ VC(min(Q), ~𝐑)` with `X^{min(Q)}_R ⊆ W`.
    */
  def check(q: Query, schema: BaaVSchema, cat: Catalog): Report = {
    val minimized = Minimize.minimize(q, cat)
    val qm = minimized.query
    val chase = Chase.run(qm, schema)
    val vc = qm.atoms.map { at =>
      at.alias -> vcFor(at.alias, at.rel, chase, schema, cat)
    }.toMap
    val perAlias = qm.atoms.map { at =>
      val need: Set[String] = qm.attrsOf(at.alias).map((a: Attr) => a.col)
      at.alias -> vc(at.alias).exists(w => need.subsetOf(w))
    }.toMap
    Report(perAlias.nonEmpty && perAlias.values.forall(identity), perAlias, minimized, chase, vc)
  }
}
