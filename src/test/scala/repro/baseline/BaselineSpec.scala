package repro.baseline

import repro.{Oracle, SparkSpec}
import repro.core.query.SqlGen
import repro.data.Workloads

/** The conventional SQL-over-NoSQL path: scans every involved relation and
  * answers via SparkSQL — correct, but access-heavy (§3).
  */
class BaselineSpec extends SparkSpec {
  private lazy val env = SparkSpec.env(Workloads.mot, 0.002)

  test("the baseline answer matches the DuckDB oracle") {
    val wq = Workloads.mot.queries.find(_.q.name == "mot_q9").get
    val (df, _) = env.baseline.answer(wq.q, env.taav)
    val tables = wq.q.atoms.map(_.rel).distinct.map(r => r -> env.taav.relation(r))
    Oracle.assertEquivalent(df, SqlGen.toSql(wq.q, Workloads.mot.catalog), tables: _*)
  }

  test("the baseline scans every relation of the query exactly once") {
    val wq = Workloads.mot.queries.find(_.q.name == "mot_q12").get
    val (_, m) = env.baseline.answer(wq.q, env.taav)
    assert(m.taavScans == 3)
    assert(m.gets == env.taav.rowCount.values.sum) // all three relations
  }

  test("baseline gets equal total tuples even for selective queries (§1: blind scans)") {
    val wq = Workloads.mot.queries.head // mot_q1: single-vehicle lookup
    val (_, m) = env.baseline.answer(wq.q, env.taav)
    assert(m.gets == env.taav.rowCount("vehicle") + env.taav.rowCount("test"))
  }

  test("baseline communication ships entire relations") {
    val wq = Workloads.mot.queries.head
    val (_, m) = env.baseline.answer(wq.q, env.taav)
    assert(m.commCells == env.taav.cells("vehicle") + env.taav.cells("test"))
  }

  test("self-referencing queries scan a relation once per distinct relation") {
    import repro.core.model.Attr
    import repro.core.query._
    val q = Query("self", Seq(RelAtom("test", "t1"), RelAtom("test", "t2")),
      Seq(EqConst(Attr("t1", "t_id"), "55"), EqAttr(Attr("t1", "t_vid"), Attr("t2", "t_vid"))),
      Seq(Attr("t2", "t_result") -> "result"),
      Some(Seq(Attr("t2", "t_result"))),
      Seq(Agg(AggFn.Count, None, "cnt")))
    val (df, m) = env.baseline.answer(q, env.taav)
    assert(df.count() >= 1)
    assert(m.taavScans == 1)
  }
}
