package repro.core.query

import repro.core.model.{Attr, Catalog, ColType}

/** A relation occurrence `rel AS alias` in the FROM clause. */
final case class RelAtom(rel: String, alias: String)

/** Predicates of SPC queries plus range comparisons.
  *
  * Only [[EqConst]]/[[EqAttr]] participate in the GET/VC chase of §6.1;
  * [[CmpConst]] ranges are applied as residual filters (they do not make a
  * query non-scan-free, but they cannot seed retrieval either).
  */
sealed trait Pred {
  def attrs: Set[Attr]
}
final case class EqConst(a: Attr, v: String) extends Pred { def attrs = Set(a) }
final case class EqAttr(a: Attr, b: Attr)    extends Pred { def attrs = Set(a, b) }
final case class CmpConst(a: Attr, op: CmpOp, v: String) extends Pred { def attrs = Set(a) }

/** A range comparison operator of [[CmpConst]]; `sql` is its SQL spelling. */
sealed abstract class CmpOp(val sql: String)
object CmpOp {
  case object Lt extends CmpOp("<")
  case object Le extends CmpOp("<=")
  case object Gt extends CmpOp(">")
  case object Ge extends CmpOp(">=")
  case object Ne extends CmpOp("<>")
}

/** A group-by aggregate `fn(arg) AS as`; `arg=None` means COUNT(*). */
final case class Agg(fn: AggFn, arg: Option[Attr], as: String) {
  require(arg.isDefined || fn == AggFn.Count, "only count may omit its argument")
}

/** An aggregate function of [[Agg]]; `sql` is its SQL name. */
sealed abstract class AggFn(val sql: String)
object AggFn {
  case object Count extends AggFn("COUNT")
  case object Sum   extends AggFn("SUM")
  case object Min   extends AggFn("MIN")
  case object Max   extends AggFn("MAX")
  case object Avg   extends AggFn("AVG")
}

/** An RA_aggr query: an SPC body with an optional group-by aggregate head.
  *
  *  - `groupBy = None`: a plain SPC query projecting `projection`
  *    (`distinct = true` gives the paper's set semantics).
  *  - `groupBy = Some(g)`: `group_by(SPC, g, aggs)` of §5.2; `projection`
  *    must list exactly the group-by attributes (with output names).
  */
final case class Query(
    name: String,
    atoms: Seq[RelAtom],
    preds: Seq[Pred],
    projection: Seq[(Attr, String)],
    groupBy: Option[Seq[Attr]] = None,
    aggs: Seq[Agg] = Nil,
    distinct: Boolean = false,
) {
  require(atoms.map(_.alias).distinct.size == atoms.size, s"$name: duplicate aliases")
  groupBy.foreach { g =>
    require(projection.map(_._1) == g, s"$name: projection must equal group-by attrs")
    require(aggs.nonEmpty, s"$name: group-by query needs aggregates")
  }

  /** Relation of an alias. */
  def relOf(alias: String): String =
    atoms.collectFirst { case RelAtom(r, `alias`) => r }
      .getOrElse(throw new NoSuchElementException(s"$name has no alias $alias"))

  /** All attribute occurrences of the query. */
  def allAttrs: Set[Attr] =
    preds.flatMap(_.attrs).toSet ++ projection.map(_._1) ++
      groupBy.getOrElse(Nil) ++ aggs.flatMap(_.arg)

  /** `X^Q_R` (§5.2): attributes of `alias` appearing in predicates or the
    * final projection / group-by / aggregates of the query.
    */
  def attrsOf(alias: String): Set[Attr] = allAttrs.filter(_.alias == alias)

  /** Type of an attribute occurrence, from the catalog. */
  def typeOf(a: Attr, cat: Catalog): ColType = cat(relOf(a.alias)).typeOf(a.col)
}
