package repro.core.planner

import repro.core.model.{Attr, KVSchema}
import repro.core.query.Query

/** Where a key attribute of an extension gets its values: from a column of
  * the input frame, or from a query constant (typed via `typeAttr`).
  */
sealed trait KeySrc
final case class FromAttr(a: Attr) extends KeySrc
final case class FromConst(v: String, typeAttr: Attr) extends KeySrc

/** A KBA plan tree (§4.2, §6.2). Leaves are constants or KV instances;
  * internal nodes are KBA operators. Shift (↑) is implicit: extensions and
  * joins align columns by name, which is exactly what ↑ buys on frames.
  */
sealed trait KPlan {
  def outAttrs: Set[Attr]

  /** Whether the plan reads a whole KV instance or relation. */
  def scans: Boolean = this match {
    case KConst(_)                => false
    case KExtend(in, _, _, _)     => in.scans
    case KJoin(l, r, _)           => l.scans || r.scans
    case _: KScanKV | _: KScanRel => true
  }
}

/** A constant keyed block: one row binding `bindings` (possibly empty — a
  * unit row seeding a chain of extensions).
  */
final case class KConst(bindings: Seq[(Attr, String)]) extends KPlan {
  val outAttrs: Set[Attr] = bindings.map(_._1).toSet
}

/** Extension `input ∝ ~kv` for `alias` (§4.2): ship the distinct key values
  * of `input` (per `keyMap`) to the storage nodes, fetch only the matching
  * blocks, explode and join back — the interleaved strategy of §7.2.
  */
final case class KExtend(input: KPlan, alias: String, kv: KVSchema,
                         keyMap: Seq[(String, KeySrc)]) extends KPlan {
  val outAttrs: Set[Attr] = input.outAttrs ++ kv.attrs.map(Attr(alias, _))
}

/** Full scan of a KV instance for `alias` (a non-scan-free leaf). */
final case class KScanKV(alias: String, kv: KVSchema) extends KPlan {
  val outAttrs: Set[Attr] = kv.attrs.map(Attr(alias, _)).toSet
}

/** TaaV fallback: scan the base relation from the conventional store (the
  * "existing SQL layer" path of module M1 for non-preserved aliases).
  */
final case class KScanRel(alias: String, rel: String, cols: Seq[String]) extends KPlan {
  val outAttrs: Set[Attr] = cols.map(Attr(alias, _)).toSet
}

/** Join of two sub-plans: equality on the shared alias-qualified columns
  * plus the explicit `on` pairs (from the query's join predicates).
  */
final case class KJoin(left: KPlan, right: KPlan, on: Seq[(Attr, Attr)]) extends KPlan {
  val outAttrs: Set[Attr] = left.outAttrs ++ right.outAttrs
}

/** How each alias of the (minimized) query is fetched. */
object AliasMode extends Enumeration {
  val ScanFreeFetch, KVScan, KVScanJoin, TaaVScan = Value
}

/** A full Zidian plan: the body producing the joined frame of the minimized
  * query, plus the query whose residual predicates / projection / aggregate
  * the executor applies on top (idempotent re-application keeps plan
  * extraction sound — DESIGN.md §3).
  */
final case class ZPlan(
    body: KPlan,
    q: Query,
    aliasModes: Map[String, AliasMode.Value],
) {
  /** Scan-free in the sense of §4.2: no KV-instance or TaaV scans. */
  def scanFree: Boolean = !body.scans

  /** Names of KV instances referenced by the plan (for boundedness). */
  def usedInstances: Set[String] = {
    def rec(p: KPlan): Set[String] = p match {
      case KExtend(in, _, kv, _) => rec(in) + kv.name
      case KScanKV(_, kv)        => Set(kv.name)
      case KJoin(l, r, _)        => rec(l) ++ rec(r)
      case _                     => Set.empty
    }
    rec(body)
  }
}
