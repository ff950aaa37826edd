package repro.core.preserve

import repro.core.model.{BaaVSchema, Catalog}
import repro.core.query.Minimize

/** Data / result preservability checks of module M1 (§5.2). */
object Preservation {

  /** Condition (I) / Theorem 1: `~R` is data preserving for the relations
    * `rels` iff for each relation R there is a KV schema ~R with
    * `att(R) = clo(~R, ~𝐑)`. Runs in O(|R||~R|²).
    */
  def isDataPreserving(rels: Seq[String], schema: BaaVSchema, cat: Catalog): Boolean =
    rels.forall { r =>
      val want = cat(r).attrs.toSet
      schema.forRel(r).exists(kv => Closure.clo(kv, schema, cat) == want)
    }

  /** Condition (II) / Theorem 2: `~R` is result preserving for SPC `q` iff
    * for each relation occurrence in `min(q)` there is a KV schema whose
    * closure covers `X^{min(q)}_R`. For RA_aggr queries this checks the
    * effective syntax of Theorem 3 (the max SPC sub-query — here, the SPC
    * body — must be result preserving). Takes `min(q)`, which
    * [[repro.core.scanfree.ScanFree.check]] has already computed.
    */
  def isResultPreserving(m: Minimize.MinResult, schema: BaaVSchema, cat: Catalog): Boolean =
    m.atoms.forall { at =>
      val need = m.xMin(at.alias).map(_.col)
      schema.forRel(at.rel).exists(kv => need.subsetOf(Closure.clo(kv, schema, cat)))
    }
}
