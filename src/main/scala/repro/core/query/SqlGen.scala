package repro.core.query

import repro.core.model.{Attr, Catalog, ColType}
import repro.core.model.ColType._

/** Generates one SQL text per [[Query]] that runs identically on Spark
  * (over typed temp views) and on DuckDB (over the all-VARCHAR oracle
  * tables): every comparison and numeric aggregate is explicitly CAST.
  */
object SqlGen {

  /** CAST expression for an attribute reference, by catalog type. */
  def castExpr(q: Query, a: Attr, cat: Catalog): String = {
    val ref = s"${a.alias}.${a.col}"
    q.typeOf(a, cat) match {
      case LongT | IntT => s"CAST($ref AS BIGINT)"
      case DoubleT      => s"CAST($ref AS DOUBLE)"
      case DateT        => s"CAST($ref AS DATE)"
      case StringT      => ref
    }
  }

  /** Literal of type `t` for the constant string `v`. */
  def lit(t: ColType, v: String): String = t match {
    case LongT | IntT | DoubleT => v
    case DateT                  => s"DATE '$v'"
    case StringT                => s"'${v.replace("'", "''")}'"
  }

  private def aggExpr(q: Query, agg: Agg, cat: Catalog): String = {
    val arg = agg.arg.fold("*") { a =>
      val ref = s"${a.alias}.${a.col}"
      agg.fn match {
        case AggFn.Count => ref
        case AggFn.Sum | AggFn.Min | AggFn.Max | AggFn.Avg =>
          q.typeOf(a, cat) match {
            // DECIMAL(18,2) keeps Spark / DuckDB / KBA sums exactly equal.
            case DoubleT | LongT | IntT => s"CAST($ref AS DECIMAL(18,2))"
            case DateT                  => s"CAST($ref AS DATE)"
            case StringT                => ref
          }
      }
    }
    s"${agg.fn.sql}($arg) AS ${agg.as}"
  }

  /** The SQL text for `q` (same text for Spark and DuckDB). */
  def toSql(q: Query, cat: Catalog): String = {
    val from = q.atoms.map(a => s"${a.rel} AS ${a.alias}").mkString(", ")
    val where = q.preds.map {
      case EqConst(a, v)     => s"${castExpr(q, a, cat)} = ${lit(q.typeOf(a, cat), v)}"
      case EqAttr(a, b)      => s"${castExpr(q, a, cat)} = ${castExpr(q, b, cat)}"
      case CmpConst(a, o, v) => s"${castExpr(q, a, cat)} ${o.sql} ${lit(q.typeOf(a, cat), v)}"
    }
    val projCols = q.projection.map { case (a, out) => s"${a.alias}.${a.col} AS $out" }
    val select = q.groupBy match {
      case Some(_) => (projCols ++ q.aggs.map(aggExpr(q, _, cat))).mkString(", ")
      case None    => projCols.mkString(", ")
    }
    val dist = if (q.distinct && q.groupBy.isEmpty) "DISTINCT " else ""
    val base = s"SELECT $dist$select FROM $from" +
      (if (where.nonEmpty) where.mkString(" WHERE ", " AND ", "") else "")
    q.groupBy match {
      case Some(g) if g.nonEmpty =>
        base + g.map(a => s"${a.alias}.${a.col}").mkString(" GROUP BY ", ", ", "")
      case _ => base
    }
  }
}
