package repro.core.planner

import org.apache.spark.sql.{Column, DataFrame, Encoders, Row, SparkSession, classic, functions => F}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.analysis.{AnsiTypeCoercion, TypeCoercion}
import org.apache.spark.sql.catalyst.expressions.{Alias, And, Attribute, AttributeReference,
  BindReferences, Cast, EqualTo, EvalMode, Expression, GenericInternalRow, GreaterThan,
  GreaterThanOrEqual, InterpretedMutableProjection, InterpretedProjection, JoinedRow, LessThan,
  LessThanOrEqual, Literal, Not, Predicate}
import org.apache.spark.sql.catalyst.expressions.aggregate.{Average, Count, DeclarativeAggregate, Max,
  Min, Sum}
import org.apache.spark.sql.catalyst.optimizer.NormalizeNaNAndZero
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Distinct, Filter, LocalRelation, LogicalPlan, Project}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.{DataType, DataTypes, DoubleType, FloatType, StructField, StructType}
import org.apache.spark.unsafe.types.UTF8String
import repro.core.model.{Attr, Catalog, ColType}
import repro.core.query._
import repro.kv.{BaaVStore, KVInstance, KVMetrics, TaaVStore}
import scala.collection.mutable

/** Interleaved execution of KBA plans (§7.2, module M3).
  *
  * Frames have alias-qualified columns (`alias__col`). Extension `∝` takes
  * the frontier's distinct keys, "ships" them to the storage nodes (counted
  * as comm + one get per key), looks up only the blocks they name in the
  * instance's key index ([[KVInstance.blocksByKey]], counted as values),
  * explodes them and joins back — data access and computation are
  * interleaved instead of fetch-all-first. That lookup ([[fetch]]) is the
  * one body of `∝`, and it runs in process only: [[PlanGen]] gives every
  * extension a scan-free input. [[run]] picks a plan's path by
  * scan-freeness:
  *
  *  - a scan-free plan reads the store only through key lookups (Prop. 7),
  *    so it is evaluated wholly in process over local row sets. The answer
  *    is a local relation of the result rows: a warm read runs no Spark
  *    job, collect included.
  *  - a plan that scans runs as DataFrame code, so Catalyst plans the
  *    physical execution and parallelism follows Spark's partitioning. It
  *    has only scans, joins and scan-free sub-plans; the latter are
  *    evaluated in process and joined in as local relations. Once the
  *    instances' statistics and key indexes are built, its answer is lazy:
  *    no Spark job runs before the client's action.
  *
  * The two paths share their semantics. The residual σ/π/group-by is one
  * definition, [[residual]]: Catalyst expressions that Catalyst's
  * interpreter evaluates over the body's rows in process, and that Spark's
  * own `Filter`/`Aggregate`/`Project`/`Distinct` operators wrap on the
  * Spark path. Every `⋈`, and each `∝`'s join back, takes its equality
  * conditions from one rule, [[joinOn]].
  *
  * Body rows and key indexes are held in this process's memory, as
  * Catalyst's internal values (`UTF8String`, dates as days in an `Int`)
  * from the index to the answer's local relation: only a client's
  * `collect()` converts them.
  */
final class Executor(spark: SparkSession, cat: Catalog, baav: BaaVStore, taav: TaaVStore) {
  import Executor._

  val metrics = new KVMetrics

  private val memo = mutable.Map.empty[(KPlan, String), DataFrame]
  private val localMemo = mutable.Map.empty[(KPlan, String), Local]

  /** Evaluate a full plan: run the body, then apply the query's residual
    * predicates, projection and aggregation (idempotent re-application).
    * A scan-free plan runs in process, any other as Spark jobs.
    */
  def run(zp: ZPlan): DataFrame =
    if (zp.scanFree) {
      val body = local(zp.body, zp.q)
      val in = attributes(body.fields)
      val r = residual(in, zp.q)
      toFrame(r.schema, r.eval(in, body.rows.map(InternalRow.fromSeq)))
    } else {
      val qe = frame(zp.body, zp.q).queryExecution
      frameOf(residual(qe.analyzed.output, zp.q).over(qe.analyzed))
    }

  /** The DataFrame of a logical plan. */
  private def frameOf(plan: LogicalPlan): DataFrame =
    new classic.Dataset[Row](classic.ClassicConversions.castToImpl(spark), plan, Encoders.row(plan.schema))

  /** The frame of a sub-plan (memoized per query so shared chase prefixes
    * execute once).
    */
  private def frame(p: KPlan, q: Query): DataFrame =
    memo.getOrElseUpdate((p, q.name), compute(p, q))

  private def compute(p: KPlan, q: Query): DataFrame = p match {

    case KScanKV(alias, kv) =>
      val inst = baav(kv.name)
      metrics.addGets(inst.numBlocks)
      metrics.addValues(inst.cells)
      metrics.addComm(inst.cells)
      metrics.kvScans += 1
      inst.flatten.select(kv.attrs.map(c => F.col(c).as(Attr(alias, c).field)): _*)

    case KScanRel(alias, rel, cols) =>
      val df = taav.scan(rel, metrics)
      df.select(cols.map(c => F.col(c).as(Attr(alias, c).field)): _*)

    case KJoin(l, r, on) if p.scans =>
      joinFrames(frame(l, q), frame(r, q), on)

    case _ => toFrame(local(p, q)) // a scan-free sub-plan, evaluated in process
  }

  /** A local relation of `rows`, whose fields are `fields`. */
  private def toFrame(fields: Seq[StructField], rows: Seq[InternalRow]): DataFrame =
    frameOf(LocalRelation(attributes(fields), rows))

  private def toFrame(l: Local): DataFrame = toFrame(l.fields, l.rows.map(InternalRow.fromSeq))

  /** [[joinOn]] over two alias-qualified frames, as a Spark join. */
  private def joinFrames(left: DataFrame, right: DataFrame,
                         pairs: Seq[(Attr, Attr)]): DataFrame = {
    val (dup, on) = joinOn(left.columns.toIndexedSeq, right.columns.toIndexedSeq, pairs)
    val renamed = dup.foldLeft(right)((df, c) => df.withColumnRenamed(c, s"__r_$c"))
    def rname(c: String): String = if (dup.contains(c)) s"__r_$c" else c
    val conds: Seq[Column] = on.map { case (l, r) => left(l) === renamed(rname(r)) }
    val joined =
      if (conds.isEmpty) left.crossJoin(renamed)
      else left.join(renamed, conds.reduce(_ && _))
    joined.drop(dup.map(c => s"__r_$c"): _*)
  }

  // ------------------------------------------------------ in-process path

  private def local(p: KPlan, q: Query): Local =
    localMemo.getOrElseUpdate((p, q.name), computeLocal(p, q))

  /** The operators of a scan-free plan over local rows. */
  private def computeLocal(p: KPlan, q: Query): Local = p match {

    case KConst(bindings) =>
      val typed = bindings.map { case (a, v) => (a, q.typeOf(a, cat), v) }
      Local(typed.map { case (a, t, _) => field(a.field, sparkType(t)) }.toVector,
            Vector(typed.map { case (_, t, v) => constant(v, t) }.toVector))

    case e @ KExtend(input, _, _, _) =>
      val in = local(input, q)
      joinLocal(in, fetch(in, e, q), joinPairs(e))

    case KJoin(l, r, on) =>
      joinLocal(local(l, q), local(r, q), on)

    case scan =>
      throw new IllegalArgumentException(s"a plan run in process must be scan-free: $scan")
  }

  /** The storage side of `frontier ∝ ~kv` (§7.2): ship the frontier's
    * distinct keys, look up only the blocks they name in the instance's key
    * index, and explode them into alias-qualified rows. A key with a null,
    * or with no value of the key column's type, names none.
    */
  private def fetch(frontier: Local, e: KExtend, q: Query): Local = {
    val KExtend(_, alias, kv, keyMap) = e
    // (a) the frontier's distinct keys, shipped down.
    val srcs: Seq[(Values => Any, DataType)] = keyMap.map {
      case (_, FromAttr(a)) =>
        val i = frontier.at(a.field)
        ((r: Values) => r(i), frontier.fields(i).dataType)
      case (_, FromConst(v, ta)) =>
        val t = q.typeOf(ta, cat)
        val c = constant(v, t)
        ((_: Values) => c, sparkType(t))
    }
    val keys = frontier.rows.map(r => srcs.map(_._1(r))).distinct
    metrics.addGets(keys.size)
    metrics.addComm(keys.size.toLong * kv.key.size)
    // (b) at the storage nodes, look up only the blocks those keys name.
    val inst = baav(kv.name)
    val keyFields = inst.keyFields
    val keyAt = kv.key.map(c => keyMap.indexWhere(_._1 == c))
    val fetched = keys.flatMap { k =>
      allOf(keyAt.zip(keyFields).map { case (i, f) => asType(k(i), srcs(i)._2, f.dataType) })
        .flatMap(stored => inst.blocksByKey.get(stored).map(stored.toVector -> _))
    }
    val segs = fetched.map(_._2.size.toLong).sum
    val fetchedTuples = fetched.map(_._2.map(_.size.toLong).sum).sum
    val fetchedCells = fetchedTuples * kv.value.size + segs * kv.key.size
    metrics.addValues(fetchedCells)
    metrics.addComm(fetchedCells)
    // (c) explode into alias-qualified rows.
    Local(explodedFields(inst, alias), fetched.flatMap { case (key, blocks) => blocks.flatten.map(key ++ _) })
  }

  /** [[joinOn]] over local rows. */
  private def joinLocal(left: Local, right: Local, pairs: Seq[(Attr, Attr)]): Local = {
    val (dup, conds) = joinOn(left.fields.map(_.name), right.fields.map(_.name), pairs)
    val li = conds.map { case (l, _) => left.at(l) }
    val ri = conds.map { case (l, r) => (right.at(r), right.fields(right.at(r)).dataType,
                                         left.fields(left.at(l)).dataType) }
    // Right rows by their condition values, as values of the left types.
    val byKey = right.rows.flatMap { r =>
      allOf(ri.map { case (i, from, to) => asType(r(i), from, to) }).map(_ -> r)
    }.groupMap(_._1)(_._2)
    val keep = right.fields.indices.filterNot(i => dup.contains(right.fields(i).name))
    val rows = for {
      l <- left.rows
      k = li.map(l(_)) if !k.contains(null)
      r <- byKey.getOrElse(k, Vector.empty)
    } yield l ++ keep.map(r)
    Local(left.fields ++ keep.map(right.fields), rows)
  }

  /** The query's residual σ/π/group-by over a body whose fields are `in`:
    * the one definition both paths run. Constants and the aggregates'
    * DECIMAL(18,2) argument casts go through Spark's `Cast`, comparisons
    * through the session's own type coercion, and aggregates are Spark's,
    * so constants, comparisons of strings, dates and mixed numeric types,
    * nulls, and the aggregates' result types and rounding are Spark's own.
    */
  private def residual(in: Seq[Attribute], q: Query): Residual = {
    val byName = in.map(a => a.name -> a).toMap
    def col(a: Attr): Expression = byName(a.field)
    def lit(a: Attr, v: String): Expression = {
      val t = q.typeOf(a, cat)
      Literal(constant(v, t), sparkType(t))
    }
    val conds = q.preds.map {
      case EqConst(a, v)      => compare(col(a), lit(a, v))(EqualTo)
      case EqAttr(a, b)       => compare(col(a), col(b))(EqualTo)
      case CmpConst(a, op, v) => compare(col(a), lit(a, v))(op match {
        case CmpOp.Lt => LessThan
        case CmpOp.Le => LessThanOrEqual
        case CmpOp.Gt => GreaterThan
        case CmpOp.Ge => GreaterThanOrEqual
        case CmpOp.Ne => (l, r) => Not(EqualTo(l, r))
      })
    }
    // A numeric argument is cast to DECIMAL(18,2), as in the generated SQL,
    // so results compare exactly.
    def arg(a: Attr): Expression =
      if (ColType.isNumeric(q.typeOf(a, cat))) cast(col(a), DataTypes.createDecimalType(18, 2)) else col(a)
    def fn(agg: Agg): DeclarativeAggregate = agg.arg.fold[DeclarativeAggregate](Count(Literal(1))) { a =>
      agg.fn match {
        case AggFn.Count => Count(col(a))
        case AggFn.Sum   => Sum(arg(a))
        case AggFn.Min   => Min(arg(a))
        case AggFn.Max   => Max(arg(a))
        case AggFn.Avg   => Average(arg(a))
      }
    }
    Residual(conds.reduceOption(And), q.projection.map { case (a, out) => out -> col(a) },
             q.groupBy.map(_ => q.aggs.map(agg => agg.as -> fn(agg))), q.distinct)
  }
}

object Executor {

  def sparkType(t: ColType): DataType = t match {
    case ColType.LongT   => DataTypes.LongType
    case ColType.IntT    => DataTypes.IntegerType
    case ColType.DoubleT => DataTypes.DoubleType
    case ColType.StringT => DataTypes.StringType
    case ColType.DateT   => DataTypes.DateType
  }

  /** The internal value of query constant `v` in a column of type `t`,
    * through Spark's own `Cast` in the session's evaluation mode — exactly
    * what Spark evaluates `CAST('v' AS t)` to. Under ANSI a value the type
    * cannot hold throws.
    */
  def constant(v: String, t: ColType): Any =
    castValue(UTF8String.fromString(v), DataTypes.StringType, sparkType(t), EvalMode.fromSQLConf(SQLConf.get))

  /** Internal value `v` of type `from` cast to `to` in `mode`. */
  private def castValue(v: Any, from: DataType, to: DataType, mode: EvalMode.Value): Any =
    cast(Literal(v, from), to, mode).eval()

  /** `v` of type `from` as the value of type `to` it equals under Spark's
    * `=`, if there is one. Spark compares two types in a type both widen
    * to, so that value is an exact cast: one that casts back to `v`.
    */
  private def asType(v: Any, from: DataType, to: DataType): Option[Any] =
    if (v == null) None
    else if (from == to) Some(v)
    else Option(castValue(v, from, to, EvalMode.TRY))
      .filter(c => castValue(c, to, from, EvalMode.TRY) == v)

  /** `rows` grouped by their values of `keys`, one output row per group:
    * the key values, then each aggregate's value over the group's rows,
    * from its declarative initial, update and evaluate expressions. With
    * no keys there is one group even over no rows, as for SQL's global
    * aggregate.
    */
  private def aggregate(rows: Vector[InternalRow], in: Seq[Attribute], keys: Seq[Expression],
                        fns: Seq[DeclarativeAggregate]): Vector[InternalRow] = {
    val buffer = fns.flatMap(_.aggBufferAttributes)
    val update = new InterpretedMutableProjection(fns.flatMap(_.updateExpressions), buffer ++ in)
    val evaluate = new InterpretedProjection(fns.map(_.evaluateExpression), buffer)
    val keyOf = new InterpretedProjection(keys.map(asKey), in)
    val groups = if (keys.isEmpty) Vector(InternalRow.empty -> rows) else rows.groupBy(keyOf).toVector
    groups.map { case (key, members) =>
      val buf = new GenericInternalRow(fns.flatMap(_.initialValues).map(_.eval()).toArray)
      update.target(buf)
      members.foreach(r => update(new JoinedRow(buf, r)))
      new JoinedRow(key, evaluate(buf))
    }
  }

  /** `op` over `l` and `r` cast to the type Spark's analyzer compares them
    * in (the session's type coercion: ANSI or not).
    */
  private def compare(l: Expression, r: Expression)(op: (Expression, Expression) => Expression): Expression = {
    val common = if (SQLConf.get.ansiEnabled) AnsiTypeCoercion.findTightestCommonType
                 else TypeCoercion.findTightestCommonType
    val t = common(l.dataType, r.dataType).getOrElse(throw new IllegalArgumentException(
      s"cannot compare ${l.dataType.sql} with ${r.dataType.sql}"))
    def to(e: Expression) = if (e.dataType == t) e else cast(e, t)
    op(to(l), to(r))
  }

  /** The residual σ/π/group-by as Catalyst expressions over a body's
    * attributes: the filter, the named outputs (the projected columns, or
    * the group-by keys) and, for a group-by, the named aggregates.
    */
  private final case class Residual(filter: Option[Expression], outs: Seq[(String, Expression)],
                                    aggs: Option[Seq[(String, DeclarativeAggregate)]], distinct: Boolean) {

    def schema: StructType = StructType((outs ++ aggs.getOrElse(Nil)).map { case (name, e) =>
      StructField(name, e.dataType, e.nullable)
    })

    /** The Spark path: Spark's own operators over `child`, whose output the
      * expressions reference.
      */
    def over(child: LogicalPlan): LogicalPlan = {
      val filtered = filter.fold(child)(Filter(_, child))
      val named = outs.map { case (name, e) => Alias(e, name)() }
      aggs match {
        case Some(fns) =>
          Aggregate(outs.map(_._2), named ++ fns.map { case (name, f) => Alias(f.toAggregateExpression(), name)() },
                    filtered)
        case None =>
          val projected = Project(named, filtered)
          if (distinct) Distinct(projected) else projected
      }
    }

    /** The in-process path: Catalyst's interpreter over `rows`, whose
      * fields are `in`.
      */
    def eval(in: Seq[Attribute], rows: Vector[InternalRow]): Vector[InternalRow] = {
      val kept = filter.fold(rows) { f =>
        val keep = Predicate.createInterpreted(BindReferences.bindReference(f, in))
        rows.filter(keep.eval)
      }
      aggs match {
        case Some(fns) => aggregate(kept, in, outs.map(_._2), fns.map(_._2))
        case None =>
          val project = new InterpretedProjection(outs.map { case (_, e) => if (distinct) asKey(e) else e }, in)
          val projected = kept.map(project)
          if (distinct) projected.distinct else projected
      }
    }
  }

  private def cast(e: Expression, to: DataType,
                   mode: EvalMode.Value = EvalMode.fromSQLConf(SQLConf.get)): Expression =
    Cast(e, to, Some(SQLConf.get.sessionLocalTimeZone), mode)

  /** `e` as Spark groups and deduplicates it: a float or double with -0.0
    * as 0.0 and every NaN as one (the optimizer's normalisation of a flat
    * key column).
    */
  private def asKey(e: Expression): Expression = e.dataType match {
    case FloatType | DoubleType => NormalizeNaNAndZero(e)
    case _                      => e
  }

  /** The fields of an instance's exploded tuples: key, then value columns,
    * qualified by `alias`.
    */
  private def explodedFields(inst: KVInstance, alias: String): Vector[StructField] =
    (inst.keyFields ++ inst.valueFields).map(f => field(Attr(alias, f.name).field, f.dataType)).toVector

  /** The join rule of `⋈` on both paths, and of each `∝`'s join back: an
    * inner equi-join on the fields `left` and `right` share, then on each
    * attr pair oriented left to right; a cross join when no condition
    * applies. The right side's copies of the shared fields are dropped.
    * Gives the shared fields and the (left, right) field pairs to equate.
    */
  private def joinOn(left: Seq[String], right: Seq[String],
                     pairs: Seq[(Attr, Attr)]): (Seq[String], Seq[(String, String)]) = {
    val (l, r) = (left.toSet, right.toSet)
    val dup = right.filter(l).sorted
    (dup, dup.map(c => (c, c)) ++ pairs.collect {
      case (a, b) if l(a.field) && r(b.field) => (a.field, b.field)
      case (a, b) if l(b.field) && r(a.field) => (b.field, a.field)
    })
  }

  /** The pairs joining `e`'s fetched rows back to its frontier. */
  private def joinPairs(e: KExtend): Seq[(Attr, Attr)] =
    e.keyMap.collect { case (kcol, FromAttr(a)) => (a, Attr(e.alias, kcol)) }

  private def allOf(xs: Seq[Option[Any]]): Option[Seq[Any]] =
    if (xs.contains(None)) None else Some(xs.flatten)

  private def field(name: String, t: DataType): StructField = StructField(name, t, nullable = true)

  private def attributes(fields: Seq[StructField]): Seq[Attribute] =
    fields.map(f => AttributeReference(f.name, f.dataType, f.nullable)())

  private type Values = Vector[Any]

  /** A frame held in memory: alias-qualified fields and a bag of rows. */
  private final case class Local(fields: Vector[StructField], rows: Vector[Values]) {
    val at: Map[String, Int] = fields.map(_.name).zipWithIndex.toMap
  }
}
