package repro.core.planner

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession, functions => F}
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.catalyst.expressions.{Cast, EvalMode, Literal}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.{DataType, DataTypes, StructField, StructType}
import repro.core.model.{Attr, Catalog, ColType}
import repro.core.query._
import repro.kv.{BaaVStore, KVInstance, KVMetrics, TaaVStore}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Interleaved execution of KBA plans (§7.2, module M3).
  *
  * Frames have alias-qualified columns (`alias__col`). Extension `∝` takes
  * the frontier's distinct keys, "ships" them to the storage nodes (counted
  * as comm + one get per key), fetches only the matching blocks (counted as
  * values), explodes them and joins back — data access and computation are
  * interleaved instead of fetch-all-first. A plan body runs on one of two
  * paths, which count the same #get/#data/comm:
  *
  *  - [[runInProcess]], for bounded plans: every frontier is capped by the
  *    degree bound whatever |D| (§6.1), so the body is evaluated in
  *    process over local row sets, and each `∝` looks its keys up in the
  *    instance's key index ([[KVInstance.blocksByKey]]). Only the residual
  *    σ/π/group-by of [[finish]] runs in Spark, over the body's rows as a
  *    local relation.
  *  - [[run]], for every other plan: each operator is DataFrame code, so
  *    Catalyst plans the physical execution and parallelism follows Spark's
  *    partitioning.
  */
final class Executor(
    spark: SparkSession,
    cat: Catalog,
    baav: BaaVStore,
    taav: TaaVStore,
    val metrics: KVMetrics = new KVMetrics,
) {
  import Executor._

  private val memo = mutable.Map.empty[(KPlan, String), DataFrame]
  private val cachedFrames = mutable.Buffer.empty[DataFrame]

  /** Unpersist intermediate caches created by extensions. */
  def cleanup(): Unit = {
    cachedFrames.foreach(_.unpersist())
    cachedFrames.clear()
  }

  private def typedLit(q: Query, v: String, a: Attr): Column =
    F.lit(v).cast(sparkType(q.typeOf(a, cat)))

  /** Evaluate a full plan: run the body, then apply the query's residual
    * predicates, projection and aggregation (idempotent re-application).
    */
  def run(zp: ZPlan): DataFrame = finish(frame(zp.body, zp.q), zp.q)

  /** The frame of a sub-plan (memoized per query so shared chase prefixes
    * execute once).
    */
  def frame(p: KPlan, q: Query): DataFrame =
    memo.getOrElseUpdate((p, q.name), compute(p, q))

  private def compute(p: KPlan, q: Query): DataFrame = p match {

    case KConst(bindings) =>
      val base = spark.range(1).toDF("__unit")
      val withCols = bindings.foldLeft(base) { case (df, (a, v)) =>
        df.withColumn(a.field, typedLit(q, v, a))
      }
      withCols.drop("__unit")

    case KExtend(input, alias, kv, keyMap) =>
      val in = frame(input, q)
      // (a) project + distinct the frontier to the key columns and ship it.
      val keyCols = keyMap.map {
        case (kcol, FromAttr(a))      => F.col(a.field).as(kcol)
        case (kcol, FromConst(v, ta)) => typedLit(q, v, ta).as(kcol)
      }
      val keys = in.select(keyCols: _*).distinct().cache()
      cachedFrames += keys
      val nKeys = keys.count()
      metrics.addGets(nKeys)
      metrics.addComm(nKeys * kv.key.size)
      // (b) at the storage nodes, retrieve only the needed keyed blocks.
      val inst = baav(kv.name)
      val matched = inst.blocked.join(keys, kv.key.toSeq).cache()
      cachedFrames += matched
      val counts = matched
        .agg(F.count(F.lit(1)), F.sum(F.size(F.col(KVInstance.BLOCK)))).head()
      val segs = counts.getLong(0)
      val fetchedTuples = if (counts.isNullAt(1)) 0L else counts.getLong(1)
      val fetchedCells = fetchedTuples * kv.value.size + segs * kv.key.size
      metrics.addValues(fetchedCells)
      metrics.addComm(fetchedCells)
      // (c) explode into alias-qualified rows and join back to the frontier.
      val exploded = matched
        .withColumn("__t", F.explode(F.col(KVInstance.BLOCK)))
        .select(kv.key.map(c => F.col(c).as(Attr(alias, c).field)) ++
          kv.value.map(c => F.col(s"__t.$c").as(Attr(alias, c).field)): _*)
      val joinPairs = keyMap.collect { case (kcol, FromAttr(a)) => (a, Attr(alias, kcol)) }
      joinFrames(in, exploded, joinPairs)

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

    case KJoin(l, r, on) =>
      joinFrames(frame(l, q), frame(r, q), on.map { case (a, b) => (a, b) })
  }

  /** Join two alias-qualified frames on (a) their shared column names and
    * (b) the explicit attr pairs; cross join when no condition applies.
    * Right-side duplicates of shared columns are dropped after the join.
    */
  private def joinFrames(left: DataFrame, right: DataFrame,
                         pairs: Seq[(Attr, Attr)]): DataFrame = {
    val dup = right.columns.toSet.intersect(left.columns.toSet).toSeq.sorted
    val renamed = dup.foldLeft(right)((df, c) => df.withColumnRenamed(c, s"__r_$c"))
    def rname(c: String): String = if (dup.contains(c)) s"__r_$c" else c

    val conds: Seq[Column] =
      dup.map(c => left(c) === renamed(s"__r_$c")) ++
        pairs.flatMap { case (a, b) =>
          if (left.columns.contains(a.field) && right.columns.contains(b.field))
            Some(left(a.field) === renamed(rname(b.field)))
          else if (left.columns.contains(b.field) && right.columns.contains(a.field))
            Some(left(b.field) === renamed(rname(a.field)))
          else None
        }
    val joined =
      if (conds.isEmpty) left.crossJoin(renamed)
      else left.join(renamed, conds.reduce(_ && _))
    joined.drop(dup.map(c => s"__r_$c"): _*)
  }

  // ------------------------------------------------------ in-process path

  private val localMemo = mutable.Map.empty[(KPlan, String), Local]

  /** Evaluate a bounded plan: the body in process, then the query's
    * residual predicates, projection and aggregation in Spark over the
    * body's rows. The plan must be scan-free.
    */
  def runInProcess(zp: ZPlan): DataFrame = {
    val body = local(zp.body, zp.q)
    val rows = body.rows.map(Row.fromSeq).asJava
    finish(spark.createDataFrame(rows, StructType(body.fields)), zp.q)
  }

  private def local(p: KPlan, q: Query): Local =
    localMemo.getOrElseUpdate((p, q.name), computeLocal(p, q))

  /** The operators of [[compute]] over local rows, with the same metrics. */
  private def computeLocal(p: KPlan, q: Query): Local = p match {

    case KConst(bindings) =>
      val typed = bindings.map { case (a, v) => (a, q.typeOf(a, cat), v) }
      Local(typed.map { case (a, t, _) => field(a.field, sparkType(t)) }.toVector,
            Vector(typed.map { case (_, t, v) => constant(v, t) }.toVector))

    case KExtend(input, alias, kv, keyMap) =>
      val in = local(input, q)
      // (a) the frontier's distinct keys, shipped down.
      val srcs: Seq[(Values => Any, DataType)] = keyMap.map {
        case (_, FromAttr(a)) =>
          val i = in.at(a.field)
          ((r: Values) => r(i), in.fields(i).dataType)
        case (_, FromConst(v, ta)) =>
          val t = q.typeOf(ta, cat)
          val c = constant(v, t)
          ((_: Values) => c, sparkType(t))
      }
      val keys = in.rows.map(r => srcs.map(_._1(r))).distinct
      metrics.addGets(keys.size)
      metrics.addComm(keys.size.toLong * kv.key.size)
      // (b) at the storage nodes, look up only the blocks those keys name.
      //     A key with a null, or with no value of the key column's type,
      //     names none.
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
      // (c) explode into alias-qualified rows and join back to the frontier.
      val exploded = Local(
        (keyFields ++ inst.valueFields).map(f => field(Attr(alias, f.name).field, f.dataType)).toVector,
        fetched.flatMap { case (key, blocks) => blocks.flatten.map(key ++ _) })
      val joinPairs = keyMap.collect { case (kcol, FromAttr(a)) => (a, Attr(alias, kcol)) }
      joinLocal(in, exploded, joinPairs)

    case KJoin(l, r, on) =>
      joinLocal(local(l, q), local(r, q), on)

    case scan =>
      throw new IllegalArgumentException(s"a plan run in process must be scan-free: $scan")
  }

  /** [[joinFrames]] over local rows: an inner equi-join on the shared field
    * names and the explicit attr pairs (a cross join when none applies),
    * dropping the right side's copies of the shared fields.
    */
  private def joinLocal(left: Local, right: Local, pairs: Seq[(Attr, Attr)]): Local = {
    val dup = right.fields.map(_.name).filter(left.at.contains)
    val conds = dup.map(c => (c, c)) ++ pairs.collect {
      case (a, b) if left.at.contains(a.field) && right.at.contains(b.field) => (a.field, b.field)
      case (a, b) if left.at.contains(b.field) && right.at.contains(a.field) => (b.field, a.field)
    }
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

  /** Residual predicates + projection / group-by aggregation (the σ/π and
    * group-by operators of KBA over the final frame).
    */
  private def finish(df: DataFrame, q: Query): DataFrame = {
    val conds = q.preds.map {
      case EqConst(a, v)      => F.col(a.field) === typedLit(q, v, a)
      case EqAttr(a, b)       => F.col(a.field) === F.col(b.field)
      case CmpConst(a, op, v) =>
        val l = F.col(a.field); val r = typedLit(q, v, a)
        op match {
          case "<"  => l < r
          case "<=" => l <= r
          case ">"  => l > r
          case ">=" => l >= r
          case "<>" => l =!= r
        }
    }
    val filtered = conds.foldLeft(df)(_ filter _)

    def aggArg(a: Attr): Column = q.typeOf(a, cat) match {
      // DECIMAL(18,2) matches the generated SQL, so results compare exactly.
      case ColType.DoubleT | ColType.LongT | ColType.IntT =>
        F.col(a.field).cast(DataTypes.createDecimalType(18, 2))
      case _ => F.col(a.field)
    }
    def aggCol(agg: Agg): Column = agg match {
      case Agg("count", None, as)    => F.count(F.lit(1)).as(as)
      case Agg("count", Some(a), as) => F.count(F.col(a.field)).as(as)
      case Agg("sum", Some(a), as)   => F.sum(aggArg(a)).as(as)
      case Agg("min", Some(a), as)   => F.min(aggArg(a)).as(as)
      case Agg("max", Some(a), as)   => F.max(aggArg(a)).as(as)
      case Agg("avg", Some(a), as)   => F.avg(aggArg(a)).as(as)
      case other                     => throw new IllegalArgumentException(s"bad agg $other")
    }

    q.groupBy match {
      case Some(g) =>
        val grouped = filtered
          .groupBy(g.map(a => F.col(a.field)): _*)
          .agg(aggCol(q.aggs.head), q.aggs.tail.map(aggCol): _*)
        q.projection.foldLeft(grouped) { case (d, (a, out)) =>
          d.withColumnRenamed(a.field, out)
        }
      case None =>
        val projected = filtered.select(q.projection.map { case (a, out) =>
          F.col(a.field).as(out)
        }: _*)
        if (q.distinct) projected.distinct() else projected
    }
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

  /** The value of query constant `v` in a column of type `t`, through
    * Spark's own `Cast` in the session's evaluation mode — exactly what the
    * literal `F.lit(v).cast(...)` of the Spark path evaluates to. Under ANSI
    * a value the type cannot hold throws.
    */
  def constant(v: String, t: ColType): Any =
    castValue(v, DataTypes.StringType, sparkType(t), EvalMode.fromSQLConf(SQLConf.get))

  private def castValue(v: Any, from: DataType, to: DataType, mode: EvalMode.Value): Any = {
    val cast = Cast(Literal.create(v, from), to, Some(SQLConf.get.sessionLocalTimeZone), mode)
    CatalystTypeConverters.convertToScala(cast.eval(), to)
  }

  /** `v` of type `from` as the value of type `to` it equals under Spark's
    * `=`, if there is one. Spark compares two types in a type both widen
    * to, so that value is an exact cast: one that casts back to `v`.
    */
  private def asType(v: Any, from: DataType, to: DataType): Option[Any] =
    if (v == null) None
    else if (from == to) Some(v)
    else Option(castValue(v, from, to, EvalMode.TRY))
      .filter(c => castValue(c, to, from, EvalMode.TRY) == v)

  private def allOf(xs: Seq[Option[Any]]): Option[Seq[Any]] =
    if (xs.contains(None)) None else Some(xs.flatten)

  private def field(name: String, t: DataType): StructField = StructField(name, t, nullable = true)

  private type Values = Vector[Any]

  /** A frame held in memory: alias-qualified fields and a bag of rows. */
  private final case class Local(fields: Vector[StructField], rows: Vector[Values]) {
    val at: Map[String, Int] = fields.map(_.name).zipWithIndex.toMap
  }
}
