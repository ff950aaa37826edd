package repro.core

import java.sql.Date
import repro.{ExampleStores, Oracle, SparkSpec, TwoPaths}
import repro.TestSchemas._
import repro.baseline.SqlOverNoSql
import repro.core.model._
import repro.core.planner._
import repro.core.query._
import repro.data.Workloads
import repro.kv.{BaaVStore, TaaVStore}
import repro.zidian.Zidian

/** Interleaved execution semantics and metric accounting (§7.2, Prop. 7). */
class ExecutorSpec extends SparkSpec {
  private lazy val s = spark

  private def data = ExampleStores.data
  private def baav = ExampleStores.baav
  private def taav = ExampleStores.taav

  /** The fixture stores with relation `rel` replaced by `df`. */
  private def storesWith(rel: String, df: org.apache.spark.sql.DataFrame): (BaaVStore, TaaVStore) =
    (ExampleStores.baavWith(rel, df), ExampleStores.taavWith(rel, df))

  /** The fixture store restricted to the instances of `sch`. */
  private def restricted(sch: BaaVSchema): BaaVStore =
    new BaaVStore(sch, baav.instances.filter { case (n, _) => sch.kvs.exists(_.name == n) })

  /** ~PARTSUPP split in two instances, neither keyed by the query's
    * constants, so PS is reconstructed by joining scans of both.
    */
  private lazy val recon = {
    val sch = BaaVSchema(Seq(
      KVSchema("ps_a", "PARTSUPP", Seq("suppkey"), Seq("partkey", "availqty")),
      KVSchema("ps_b", "PARTSUPP", Seq("partkey", "suppkey"), Seq("supplycost"))))
    (sch, BaaVStore.build(sch, data))
  }

  private val atlantis: Query = q1.copy(preds = q1.preds.map {
    case EqConst(at, _) => EqConst(at, "ATLANTIS")
    case p              => p
  })

  private def runPlan(zp: ZPlan): (org.apache.spark.sql.DataFrame, Executor) = {
    val exec = new Executor(s, cat, baav, taav)
    (exec.run(zp), exec)
  }

  test("the Q1 chain plan computes the correct grouped answer") {
    val (df, _) = runPlan(PlanGen.plan(q1, r1, cat))
    val got = df.collect().map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(10L -> 12.0, 30L -> 12.0))
  }

  test("scan-free plans perform no scans (Proposition 7a)") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    assert(exec.metrics.scans == 0)
  }

  test("extension gets are counted per requested distinct key") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // 1 get for 'GERMANY', 1 for nationkey 1, 2 for suppkeys {10, 30}.
    assert(exec.metrics.gets == 4)
  }

  test("extension values count only the fetched blocks") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // ~NATION: 1 block (1 key cell + 1 tuple x 1 value cell) = 2
    // ~SUPPLIER: block of nationkey 1: 1 + 2x1 = 3
    // ~PARTSUPP: blocks of 10 and 30: 2 + (2+3)x3 = 17
    assert(exec.metrics.valuesAccessed == 2 + 3 + 17)
    // FRANCE's supplier 20 and its partsupp block were never touched.
  }

  test("communication = keys shipped + blocks fetched") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    // keys shipped: 1 + 1 + 2 = 4 cells; fetched = 22 cells (above).
    assert(exec.metrics.commCells == 4 + 22)
  }

  test("a KV-instance scan counts one get per block and all cells") {
    val q = Query("scan", Seq(RelAtom("PARTSUPP", "PS")), Nil,
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg(AggFn.Sum, Some(Attr("PS", "supplycost")), "tot")))
    val (df, exec) = runPlan(PlanGen.plan(q, r1, cat))
    assert(df.count() == 3)
    assert(exec.metrics.kvScans == 1)
    assert(exec.metrics.gets == 3)           // 3 keyed blocks
    assert(exec.metrics.valuesAccessed == 3 + 6 * 3)
  }

  test("a TaaV fallback scan counts one get per tuple") {
    val q = Query("taav", Seq(RelAtom("NATION", "N")), Nil,
      Seq(Attr("N", "name") -> "name"), distinct = true)
    val (df, exec) = runPlan(PlanGen.plan(q, BaaVSchema(Nil), cat))
    assert(df.count() == 2)
    assert(exec.metrics.taavScans == 1)
    assert(exec.metrics.gets == 2)
  }

  test("clo-reconstruction produces the same answer as direct SQL") {
    val (sch, store2) = recon
    val q = Query("recon", Seq(RelAtom("PARTSUPP", "PS")),
      Seq(CmpConst(Attr("PS", "availqty"), CmpOp.Gt, "2")),
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg(AggFn.Sum, Some(Attr("PS", "supplycost")), "tot")))
    val zp = PlanGen.plan(q, sch, cat)
    assert(zp.aliasModes("PS") == AliasMode.KVScanJoin)
    val exec = new Executor(s, cat, store2, taav)
    val got = exec.run(zp).collect()
      .map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(20L -> 9.0, 30L -> 12.0))
    // Scan ~ps_a: 3 blocks, 3 key + 6 x 2 value cells. Scan ~ps_b: 6
    // blocks of 2 key + 1 value cells. No key is shipped.
    val m = exec.metrics
    assert((m.gets, m.valuesAccessed, m.commCells, m.scans) == (3 + 6, 15 + 18, 15 + 18, 2))
  }

  test("a plan mixing an extension with scans counts both") {
    // Without ~SUPPLIER, S is a TaaV scan and PS a scan of ~PARTSUPP;
    // only N is fetched, by the ~NATION extension seeded by 'GERMANY'.
    val sch = BaaVSchema(Seq(kvPartsupp, kvNation))
    val zp = PlanGen.plan(q1, sch, cat)
    assert(zp.aliasModes == Map("N" -> AliasMode.ScanFreeFetch, "S" -> AliasMode.TaaVScan,
                                "PS" -> AliasMode.KVScan))
    val exec = new Executor(s, cat, restricted(sch), taav)
    val got = exec.run(zp).collect().map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(10L -> 12.0, 30L -> 12.0))
    // ∝ ~NATION: 1 key, 2 cells; SUPPLIER: 3 tuples, 6 cells; ~PARTSUPP:
    // 3 blocks, 3 key + 6 x 3 value cells.
    val m = exec.metrics
    assert((m.gets, m.valuesAccessed, m.commCells, m.scans) == (1 + 3 + 3, 2 + 6 + 21, 1 + 2 + 6 + 21, 2))
  }

  test("a residual predicate that cannot filter at fetch time still applies") {
    val q = q1Prime.copy(preds = q1Prime.preds :+ CmpConst(Attr("PS", "supplycost"), CmpOp.Gt, "5"))
    val (df, exec) = runPlan(PlanGen.plan(q, r1, cat))
    import s.implicits._
    val got = df.as[(Long, Double)].collect().toSet
    assert(got == Set((10L, 7.0), (30L, 6.0)))
    assert(exec.metrics.scans == 0)
  }

  test("a frontier key missing from the store just drops those tuples") {
    val (df, exec) = runPlan(PlanGen.plan(atlantis, r1, cat))
    assert(df.count() == 0)
    assert(exec.metrics.gets == 1) // only the ATLANTIS lookup
  }

  test("shared chase prefixes execute once (memoization)") {
    val (_, exec) = runPlan(PlanGen.plan(q1, r1, cat))
    val before = exec.metrics.gets
    // Re-running the same plan through the same executor reuses every frame.
    exec.run(PlanGen.plan(q1, r1, cat))
    assert(exec.metrics.gets == before)
  }

  // ------------------------- Zidian in process vs the baseline on Spark
  // "Both paths" are Zidian's and the baseline's: TwoPaths asserts the two
  // answers are equal, and each test asserts Zidian's counters.

  private def bothPaths(q: Query, store: BaaVStore = baav, sch: BaaVSchema = r1,
                        c: Catalog = cat, t: TaaVStore = taav) =
    TwoPaths.check(new Zidian(c, sch), q, store, t, s)

  test("both paths agree on the Q1 chain, with Zidian's gets, #data and comm") {
    val (rows, m) = bothPaths(q1)
    assert(rows == Seq("10|12.000000", "30|12.000000"))
    assert((m.gets, m.valuesAccessed, m.commCells, m.scans) == (4, 22, 26, 0))
  }

  test("both paths: a missing key costs one get and yields no rows") {
    val (rows, m) = bothPaths(atlantis)
    assert(rows.isEmpty && m.gets == 1)
  }

  test("both paths: a null frontier key counts as a get and matches nothing") {
    import s.implicits._
    val sup = Seq((Some(10L), 1), (Some(20L), 2), (Some(30L), 1), (None, 1))
      .toDF("suppkey", "nationkey")
    val (store, t) = storesWith("SUPPLIER", sup)
    val (rows, m) = bothPaths(q1, store, t = t)
    assert(rows == Seq("10|12.000000", "30|12.000000"))
    // 1 + 1 + 3 frontier keys {10, 30, null}; ~SUPPLIER's block holds 3 tuples.
    assert(m.gets == 5 && m.valuesAccessed == 2 + 4 + 17)
  }

  test("both paths keep duplicate tuples of a block (bag multiplicity)") {
    import s.implicits._
    val ps = data("PARTSUPP").unionByName(Seq((101L, 10L, 7.0, 2)).toDF(data("PARTSUPP").columns.toIndexedSeq: _*))
    val (store, t) = storesWith("PARTSUPP", ps)
    val (rows, m) = bothPaths(q1, store, t = t)
    assert(rows == Seq("10|19.000000", "30|12.000000"))
    assert(m.valuesAccessed == 2 + 3 + 20)
  }

  test("both paths count every segment of a split block in #data") {
    val split = BaaVStore.build(r1, data, maxBlockSize = Some(2))
    assert(split("~PARTSUPP").blocked.count() == 4) // suppkey 30 spans two segments
    val (rows, m) = bothPaths(q1, split)
    assert(rows == Seq("10|12.000000", "30|12.000000"))
    // ~PARTSUPP: 3 segments x 1 key cell + 5 tuples x 3 value cells.
    assert(m.gets == 4 && m.valuesAccessed == 2 + 3 + 18)
  }

  /** EVENT rows keyed by day, city and id. ev_id is stored as INT under a
    * BIGINT catalog type, so its key lookups compare values of two types.
    */
  private lazy val castEv = {
    import s.implicits._
    val evCat = Catalog(Seq(RelSchema("EVENT",
      Seq("ev_id" -> ColType.LongT, "day" -> ColType.DateT, "city" -> ColType.StringT,
          "qty" -> ColType.IntT), pk = Seq("ev_id"))))
    val evSchema = BaaVSchema(Seq(
      KVSchema("ev_by_day", "EVENT", Seq("day"), Seq("ev_id", "city", "qty")),
      KVSchema("ev_by_city", "EVENT", Seq("city"), Seq("ev_id", "day", "qty")),
      KVSchema("ev_by_id", "EVENT", Seq("ev_id"), Seq("day", "city", "qty"))))
    val d = Map("EVENT" -> Seq(
      (1, Date.valueOf("2024-03-05"), "PARIS", 3), (2, Date.valueOf("2024-03-05"), "LYON", 4),
      (3, Date.valueOf("2024-03-06"), "PARIS", 5), (7, Date.valueOf("2024-03-07"), "NICE", 6),
    ).toDF("ev_id", "day", "city", "qty"))
    (evCat, evSchema, BaaVStore.build(evSchema, d), TaaVStore.build(evCat, d))
  }

  /** Date, string and padded numeric constants, on the scan-free plan
    * (`scanFree`) or on a scan of EVENT.
    */
  private def castsConstants(scanFree: Boolean): Unit = {
    val (evCat, _, store, evTaav) = castEv
    def query(col: String, v: String, out: String) = Query(s"by_$col",
      Seq(RelAtom("EVENT", "e")), Seq(EqConst(Attr("e", col), v)),
      Seq(Attr("e", out) -> out), Some(Seq(Attr("e", out))),
      Seq(Agg(AggFn.Sum, Some(Attr("e", "qty")), "total")))
    val st = if (scanFree) store else noInstances
    def run(q: Query) = TwoPaths.check(new Zidian(evCat, st.schema), q, st, evTaav, s, scanFree)._1
    // '2024-3-5' is not ISO-8601, but Spark's date cast accepts it.
    assert(run(query("day", "2024-3-5", "city")) == Seq("LYON|4.000000", "PARIS|3.000000"))
    assert(run(query("city", "PARIS", "day")) == Seq("2024-03-05|3.000000", "2024-03-06|5.000000"))
    // ANSI casts trim the blanks around a number.
    assert(run(query("ev_id", " 7 ", "city")) == Seq("NICE|6.000000"))
  }

  test("both paths cast date, string and padded numeric constants through Spark's Cast") {
    castsConstants(scanFree = true)
  }

  test("a scanning plan casts date, string and padded numeric constants through Spark's Cast") {
    castsConstants(scanFree = false)
  }

  test("the in-process path runs no Spark job, collect included") {
    val z = new Zidian(cat, r1)
    def read() = z.answer(q1, baav, taav, s)
    read().df.collect() // builds the instances' key indexes
    assert(read().plan.scanFree)
    assert(jobsOf(read().df.collect()).isEmpty)
    // Every scan-free template, bounded or not, after one warm-up read.
    for (ds <- Workloads.all) {
      val env = SparkSpec.env(ds, 0.002)
      for (wq <- ds.queries.filter(_.scanFree)) {
        def read() = env.zidian.answer(wq.q, env.baav, env.taav, s)
        read().df.collect()
        val jobs = jobsOf(read().df.collect())
        assert(jobs.isEmpty, s"${ds.name} ${wq.q.name} ran Spark jobs $jobs")
      }
    }
  }

  test("an empty frontier fetches nothing") {
    // NATION -> SUPPLIER: an out-of-domain name leaves ~SUPPLIER no keys.
    val q = Query("suppliers_of_ATLANTIS",
      Seq(RelAtom("SUPPLIER", "S"), RelAtom("NATION", "N")),
      Seq(EqAttr(Attr("S", "nationkey"), Attr("N", "nationkey")), EqConst(Attr("N", "name"), "ATLANTIS")),
      Seq(Attr("S", "suppkey") -> "suppkey"))
    val ans = new Zidian(cat, r1).answer(q, baav, taav, s)
    assert(ans.df.collect().isEmpty)
    // Only the ATLANTIS lookup: no key shipped to ~SUPPLIER, nothing fetched.
    val m = ans.metrics
    assert((m.gets, m.valuesAccessed, m.commCells) == (1, 0, 1))
  }

  test("a warm reconstruction runs no Spark job before collect") {
    val (sch, store) = recon
    val q = Query("recon", Seq(RelAtom("PARTSUPP", "PS")), Nil,
      Seq(Attr("PS", "availqty") -> "qty", Attr("PS", "supplycost") -> "cost"))
    val z = new Zidian(cat, sch)
    // Without adaptive execution each action is one job, so the count shows
    // the actions the plan runs before its answer is collected.
    val aqe = "spark.sql.adaptive.enabled"
    val was = s.conf.get(aqe)
    s.conf.set(aqe, "false")
    try {
      z.answer(q, store, taav, s).df.collect() // computes the instances' statistics
      var ans: repro.zidian.ZidianAnswer = null
      val jobs = jobsOf { ans = z.answer(q, store, taav, s) }
      assert(ans.plan.aliasModes("PS") == AliasMode.KVScanJoin)
      assert(jobs.isEmpty, s"jobs $jobs")
      assert(ans.df.collect().length == 6)
    } finally s.conf.set(aqe, was)
  }

  test("a bounded read after insert or delete sees the write") {
    import s.implicits._
    val cols = data("PARTSUPP").columns.toIndexedSeq
    val z = new Zidian(cat, r1)
    assert(Oracle.canon(z.answer(q1, baav, taav, s).df) == Seq("10|12.000000", "30|12.000000"))
    val ins = Seq((106L, 10L, 3.0, 7)).toDF(cols: _*)
    val del = Seq((103L, 30L, 2.0, 4)).toDF(cols: _*)
    def read(st: BaaVStore, ps: org.apache.spark.sql.DataFrame): Seq[String] = {
      val t = ExampleStores.taavWith("PARTSUPP", ps)
      val ans = z.answer(q1, st, t, s)
      assert(ans.decision.bounded.contains(true))
      val rows = Oracle.canon(ans.df)
      assert(rows == Oracle.canon(new SqlOverNoSql(cat, s).answer(q1, t)._1))
      rows
    }
    assert(read(baav.insert("PARTSUPP", ins), data("PARTSUPP").unionByName(ins)) ==
             Seq("10|15.000000", "30|12.000000"))
    assert(read(baav.delete("PARTSUPP", del), data("PARTSUPP").exceptAll(del)) ==
             Seq("10|12.000000", "30|10.000000"))
  }

  // ------------------------------- residual σ/π/group-by on both paths

  private def day(d: String) = Date.valueOf(d)
  private def e(c: String) = Attr("e", c)

  /** EVENT rows for the residual operators: `qty` is INT and `ref` BIGINT;
    * `price` is a DOUBLE whose cast to DECIMAL(18,2) rounds at the third
    * decimal; the cities of 2024-03-07 order differently in UTF-8 (Spark)
    * and UTF-16 (Java strings); 2024-03-08 has a price of 0.0 and -0.0.
    */
  private lazy val ev = {
    import s.implicits._
    val c = Catalog(Seq(RelSchema("EVENT",
      Seq("ev_id" -> ColType.LongT, "day" -> ColType.DateT, "city" -> ColType.StringT,
          "qty" -> ColType.IntT, "ref" -> ColType.LongT, "price" -> ColType.DoubleT),
      pk = Seq("ev_id"))))
    val sch = BaaVSchema(Seq(
      KVSchema("ev_by_day", "EVENT", Seq("day"), Seq("ev_id", "city", "qty", "ref", "price")),
      KVSchema("ev_by_city", "EVENT", Seq("city"), Seq("ev_id", "day", "qty", "ref", "price"))))
    val d = Map("EVENT" -> Seq(
      (1L, day("2024-03-05"), "PARIS", 1, 1L, 2.675),
      (2L, day("2024-03-05"), "PARIS", 2, 5L, 0.125),
      (3L, day("2024-03-05"), "PARIS", 2, 2L, 1.005),
      (4L, day("2024-03-05"), "LYON", 4, 4L, 0.335),
      (5L, day("2024-03-06"), "PARIS", 3, 9L, 1.0),
      (6L, day("2024-03-07"), "Zurich", 5, 5L, 2.5),
      (7L, day("2024-03-07"), "\uFF21", 6, 7L, 3.0),
      (8L, day("2024-03-07"), "\uD83D\uDE00", 7, 7L, 4.0),
      (9L, day("2024-03-07"), "avignon", 8, 1L, 5.0),
      (10L, day("2024-03-07"), "avignon", 8, 2L, 5.0),
      (11L, day("2024-03-08"), "NICE", 1, 1L, 0.0),
      (12L, day("2024-03-08"), "NICE", 1, 1L, -0.0),
    ).toDF("ev_id", "day", "city", "qty", "ref", "price"))
    (c, sch, BaaVStore.build(sch, d), TaaVStore.build(c, d))
  }

  /** A query over EVENT `e`: `preds`, output columns named after their
    * attributes, and aggregates `aggs` when `groupBy` is given.
    */
  private def evQuery(name: String, preds: Seq[Pred], out: Seq[String],
                      groupBy: Option[Seq[String]] = None, aggs: Seq[Agg] = Nil,
                      distinct: Boolean = false) =
    Query(name, Seq(RelAtom("EVENT", "e")), preds, out.map(c => e(c) -> c),
          groupBy.map(_.map(e)), aggs, distinct)

  /** A store of no instance: every plan over it scans the TaaV relations
    * and runs as Spark jobs.
    */
  private lazy val noInstances = new BaaVStore(BaaVSchema(Nil), Map.empty)

  /** Zidian's answer rows, once they agree with the baseline's: in process
    * on the scan-free plan over `ev`'s instances (`scanFree`), else as
    * Spark jobs on a scan of EVENT.
    */
  private def answerRows(scanFree: Boolean)(q: Query): Seq[Seq[Any]] = {
    val (c, sch, store, t) = ev
    val st = if (scanFree) store else noInstances
    val z = new Zidian(c, st.schema)
    TwoPaths.check(z, q, st, t, s, scanFree)
    z.answer(q, st, t, s).df.collect().toSeq.map(_.toSeq)
  }

  /** A case of the residual operators, run on both of Zidian's paths: on
    * the scan-free plan as `both paths: <title>` (Zidian and the baseline
    * agree), and on a scanning plan as `a scanning plan: <title>`.
    */
  private def residualTest(title: String)(body: (Query => Seq[Seq[Any]]) => Unit): Unit = {
    test(s"both paths: $title")(body(answerRows(scanFree = true)))
    test(s"a scanning plan: $title")(body(answerRows(scanFree = false)))
  }

  private def dec(v: String) = new java.math.BigDecimal(v)

  residualTest("avg is DECIMAL(22,6), rounded half up") { evRows =>
    val rows = evRows(evQuery("avg", Seq(EqConst(e("day"), "2024-03-05")), Seq("city"), Some(Seq("city")),
      Seq(Agg(AggFn.Avg, Some(e("qty")), "mean_qty"), Agg(AggFn.Avg, Some(e("price")), "mean_price"))))
    // PARIS: qty 5/3; prices 2.68 + 0.13 + 1.01 after the DECIMAL(18,2) cast.
    assert(rows.toSet == Set(Seq("PARIS", dec("1.666667"), dec("1.273333")),
                             Seq("LYON", dec("4.000000"), dec("0.340000"))))
  }

  residualTest("min and max over a date and over a string") { evRows =>
    val byDay = evRows(evQuery("date_range", Seq(EqConst(e("city"), "PARIS")), Seq("city"), Some(Seq("city")),
      Seq(Agg(AggFn.Min, Some(e("day")), "first"), Agg(AggFn.Max, Some(e("day")), "last"))))
    assert(byDay == Seq(Seq("PARIS", day("2024-03-05"), day("2024-03-06"))))
    val byCity = evRows(evQuery("city_range", Seq(EqConst(e("day"), "2024-03-07")), Seq("day"), Some(Seq("day")),
      Seq(Agg(AggFn.Min, Some(e("city")), "first"), Agg(AggFn.Max, Some(e("city")), "last"))))
    // UTF-8 order: U+1F600 (F0 ..) sorts after U+FF21 (EF ..); in UTF-16 it is before.
    assert(byCity == Seq(Seq(day("2024-03-07"), "Zurich", "\uD83D\uDE00")))
  }

  residualTest("sum over a DOUBLE rounds each value at the third decimal") { evRows =>
    val rows = evRows(evQuery("total", Seq(EqConst(e("city"), "PARIS")), Seq("city"), Some(Seq("city")),
      Seq(Agg(AggFn.Sum, Some(e("price")), "total"))))
    // 2.675, 0.125, 1.005 and 1.0 cast to 2.68, 0.13, 1.01 and 1.00.
    assert(rows == Seq(Seq("PARIS", dec("4.82"))))
  }

  residualTest("<> and range predicates on a date and on a string") { evRows =>
    def ids(seed: Pred, residual: Pred): Set[Any] =
      evRows(evQuery("range", Seq(seed, residual), Seq("ev_id"))).map(_.head).toSet
    val paris = EqConst(e("city"), "PARIS")
    assert(ids(paris, CmpConst(e("day"), CmpOp.Ne, "2024-03-05")) == Set(5L))
    assert(ids(paris, CmpConst(e("day"), CmpOp.Lt, "2024-03-06")) == Set(1L, 2L, 3L))
    assert(ids(paris, CmpConst(e("day"), CmpOp.Ge, "2024-03-06")) == Set(5L))
    val mar7 = EqConst(e("day"), "2024-03-07")
    assert(ids(mar7, CmpConst(e("city"), CmpOp.Ne, "avignon")) == Set(6L, 7L, 8L))
    assert(ids(mar7, CmpConst(e("city"), CmpOp.Gt, "Zurich")) == Set(7L, 8L, 9L, 10L))
    assert(ids(mar7, CmpConst(e("city"), CmpOp.Lt, "\uFF21")) == Set(6L, 9L, 10L))
  }

  residualTest("a residual equality across INT and BIGINT columns") { evRows =>
    val rows = evRows(evQuery("same", Seq(EqConst(e("city"), "PARIS"), EqAttr(e("qty"), e("ref"))), Seq("ev_id")))
    assert(rows.map(_.head).toSet == Set(1L, 3L))
  }

  residualTest("a distinct projection without group-by") { evRows =>
    val q = evQuery("cities", Seq(EqConst(e("day"), "2024-03-07")), Seq("city"), distinct = true)
    assert(evRows(q).map(_.head).sortBy(_.toString) ==
             Seq("Zurich", "avignon", "\uD83D\uDE00", "\uFF21").sortBy(_.toString))
    assert(evRows(q.copy(distinct = false)).size == 5)
    // Spark deduplicates -0.0 and 0.0 as one value.
    val prices = evQuery("prices", Seq(EqConst(e("day"), "2024-03-08")), Seq("price"), distinct = true)
    assert(evRows(prices) == Seq(Seq(0.0)))
  }

  residualTest("a global aggregate over an empty body gives one row") { evRows =>
    val rows = evRows(evQuery("none", Seq(EqConst(e("city"), "ATLANTIS")), Nil, Some(Nil),
      Seq(Agg(AggFn.Count, None, "n"), Agg(AggFn.Count, Some(e("ref")), "refs"), Agg(AggFn.Sum, Some(e("price")), "total"),
          Agg(AggFn.Min, Some(e("day")), "first"), Agg(AggFn.Avg, Some(e("qty")), "mean"))))
    assert(rows == Seq(Seq[Any](0L, 0L, null, null, null)))
  }

  residualTest("a group-by over an empty body gives no rows") { evRows =>
    val q = evQuery("none_by_day", Seq(EqConst(e("city"), "ATLANTIS")), Seq("day"), Some(Seq("day")),
      Seq(Agg(AggFn.Count, None, "n")))
    assert(evRows(q).isEmpty)
  }
}
