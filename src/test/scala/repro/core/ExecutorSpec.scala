package repro.core

import java.sql.Date
import repro.{SparkSpec, TestSchemas, TwoPaths}
import repro.TestSchemas._
import repro.baseline.SqlOverNoSql
import repro.benchutil.Harness
import repro.core.model._
import repro.core.planner._
import repro.core.query._
import repro.kv.{BaaVStore, TaaVStore}
import repro.zidian.Zidian

/** Interleaved execution semantics and metric accounting (§7.2, Prop. 7). */
class ExecutorSpec extends SparkSpec {
  private lazy val s = spark

  private lazy val data = {
    import s.implicits._
    Map(
      "NATION"   -> Seq((1, "GERMANY"), (2, "FRANCE")).toDF("nationkey", "name"),
      "SUPPLIER" -> Seq((10L, 1), (20L, 2), (30L, 1)).toDF("suppkey", "nationkey"),
      "PARTSUPP" -> Seq(
        (100L, 10L, 5.0, 1), (101L, 10L, 7.0, 2),
        (102L, 20L, 9.0, 3),
        (103L, 30L, 2.0, 4), (104L, 30L, 4.0, 5), (105L, 30L, 6.0, 6),
      ).toDF("partkey", "suppkey", "supplycost", "availqty"),
    )
  }
  private lazy val baav = BaaVStore.build(r1, data, materialize = false)
  private lazy val taav = TaaVStore.build(cat, data)

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
      Seq(Agg("sum", Some(Attr("PS", "supplycost")), "tot")))
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
    import s.implicits._
    val ps1 = KVSchema("ps_a", "PARTSUPP", Seq("suppkey"), Seq("partkey", "availqty"))
    val ps2 = KVSchema("ps_b", "PARTSUPP", Seq("partkey", "suppkey"), Seq("supplycost"))
    val sch = BaaVSchema(Seq(ps1, ps2))
    val q = Query("recon", Seq(RelAtom("PARTSUPP", "PS")),
      Seq(CmpConst(Attr("PS", "availqty"), ">", "2")),
      Seq(Attr("PS", "suppkey") -> "sk"),
      Some(Seq(Attr("PS", "suppkey"))),
      Seq(Agg("sum", Some(Attr("PS", "supplycost")), "tot")))
    val zp = PlanGen.plan(q, sch, cat)
    assert(zp.aliasModes("PS") == AliasMode.KVScanExtend)
    val store2 = BaaVStore.build(sch, data, materialize = false)
    val exec = new Executor(s, cat, store2, taav)
    val got = exec.run(zp).collect()
      .map(r => (r.getLong(0), r.getDecimal(1).doubleValue)).toMap
    assert(got == Map(20L -> 9.0, 30L -> 12.0))
  }

  test("a residual predicate that cannot filter at fetch time still applies") {
    val q = q1Prime.copy(preds = q1Prime.preds :+ CmpConst(Attr("PS", "supplycost"), ">", "5"))
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

  // ------------------------------------------- in process vs on Spark

  private def withRel(rel: String, df: org.apache.spark.sql.DataFrame) = data.updated(rel, df)

  private def bothPaths(q: Query, store: BaaVStore = baav, sch: BaaVSchema = r1,
                        c: Catalog = cat, t: TaaVStore = taav) =
    TwoPaths.check(new Zidian(c, sch), q, store, t, s)

  test("both paths agree on the Q1 chain: answer, gets, #data and comm") {
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
    val (rows, m) = bothPaths(q1, BaaVStore.build(r1, withRel("SUPPLIER", sup), materialize = false))
    assert(rows == Seq("10|12.000000", "30|12.000000"))
    // 1 + 1 + 3 frontier keys {10, 30, null}; ~SUPPLIER's block holds 3 tuples.
    assert(m.gets == 5 && m.valuesAccessed == 2 + 4 + 17)
  }

  test("both paths keep duplicate tuples of a block (bag multiplicity)") {
    import s.implicits._
    val ps = data("PARTSUPP").unionByName(Seq((101L, 10L, 7.0, 2)).toDF(data("PARTSUPP").columns: _*))
    val (rows, m) = bothPaths(q1, BaaVStore.build(r1, withRel("PARTSUPP", ps), materialize = false))
    assert(rows == Seq("10|19.000000", "30|12.000000"))
    assert(m.valuesAccessed == 2 + 3 + 20)
  }

  test("both paths count every segment of a split block in #data") {
    val split = BaaVStore.build(r1, data, maxBlockSize = Some(2), materialize = false)
    assert(split("~PARTSUPP").blocked.count() == 4) // suppkey 30 spans two segments
    val (rows, m) = bothPaths(q1, split)
    assert(rows == Seq("10|12.000000", "30|12.000000"))
    // ~PARTSUPP: 3 segments x 1 key cell + 5 tuples x 3 value cells.
    assert(m.gets == 4 && m.valuesAccessed == 2 + 3 + 18)
  }

  test("both paths cast date, string and padded numeric constants through Spark's Cast") {
    import s.implicits._
    val evCat = Catalog(Seq(RelSchema("EVENT",
      Seq("ev_id" -> ColType.LongT, "day" -> ColType.DateT, "city" -> ColType.StringT,
          "qty" -> ColType.IntT), pk = Seq("ev_id"))))
    val evSchema = BaaVSchema(Seq(
      KVSchema("ev_by_day", "EVENT", Seq("day"), Seq("ev_id", "city", "qty")),
      KVSchema("ev_by_city", "EVENT", Seq("city"), Seq("ev_id", "day", "qty")),
      KVSchema("ev_by_id", "EVENT", Seq("ev_id"), Seq("day", "city", "qty"))))
    // ev_id is stored as INT under a BIGINT catalog type, so its key
    // lookups compare values of two types.
    val d = Map("EVENT" -> Seq(
      (1, Date.valueOf("2024-03-05"), "PARIS", 3), (2, Date.valueOf("2024-03-05"), "LYON", 4),
      (3, Date.valueOf("2024-03-06"), "PARIS", 5), (7, Date.valueOf("2024-03-07"), "NICE", 6),
    ).toDF("ev_id", "day", "city", "qty"))
    val store = BaaVStore.build(evSchema, d, materialize = false)
    val evTaav = TaaVStore.build(evCat, d)
    def query(col: String, v: String, out: String) = Query(s"by_$col",
      Seq(RelAtom("EVENT", "e")), Seq(EqConst(Attr("e", col), v)),
      Seq(Attr("e", out) -> out), Some(Seq(Attr("e", out))),
      Seq(Agg("sum", Some(Attr("e", "qty")), "total")))
    def run(q: Query) = bothPaths(q, store, evSchema, evCat, evTaav)._1
    // '2024-3-5' is not ISO-8601, but Spark's date cast accepts it.
    assert(run(query("day", "2024-3-5", "city")) == Seq("LYON|4.000000", "PARIS|3.000000"))
    assert(run(query("city", "PARIS", "day")) == Seq("2024-03-05|3.000000", "2024-03-06|5.000000"))
    // ANSI casts trim the blanks around a number.
    assert(run(query("ev_id", " 7 ", "city")) == Seq("NICE|6.000000"))
  }

  test("the in-process path runs no Spark job until the answer is collected") {
    val z = new Zidian(cat, r1)
    z.answer(q1, baav, taav, s).df.collect() // builds the instances' key indexes
    val group = "executor-spec-in-process"
    s.sparkContext.setJobGroup(group, "bounded answer")
    val ans = try z.answer(q1, baav, taav, s) finally s.sparkContext.clearJobGroup()
    assert(ans.decision.bounded.contains(true))
    assert(s.sparkContext.statusTracker.getJobIdsForGroup(group).isEmpty)
  }

  test("a bounded read after insert or delete sees the write") {
    import s.implicits._
    val cols = data("PARTSUPP").columns
    val z = new Zidian(cat, r1)
    val store = BaaVStore.build(r1, data, materialize = false)
    assert(Harness.canon(z.answer(q1, store, taav, s).df) == Seq("10|12.000000", "30|12.000000"))
    val ins = Seq((106L, 10L, 3.0, 7)).toDF(cols: _*)
    val del = Seq((103L, 30L, 2.0, 4)).toDF(cols: _*)
    def read(st: BaaVStore, ps: org.apache.spark.sql.DataFrame): Seq[String] = {
      val t = TaaVStore.build(cat, withRel("PARTSUPP", ps))
      val ans = z.answer(q1, st, t, s)
      assert(ans.decision.bounded.contains(true))
      val rows = Harness.canon(ans.df)
      assert(rows == Harness.canon(new SqlOverNoSql(cat, s).answer(q1, t)._1))
      rows
    }
    assert(read(store.insert("PARTSUPP", ins), data("PARTSUPP").unionByName(ins)) ==
             Seq("10|15.000000", "30|12.000000"))
    assert(read(store.delete("PARTSUPP", del), data("PARTSUPP").exceptAll(del)) ==
             Seq("10|12.000000", "30|10.000000"))
  }
}
