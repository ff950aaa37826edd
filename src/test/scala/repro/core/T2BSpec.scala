package repro.core

import repro.SparkSpec
import repro.core.model.{KVSchema, Qcs}
import repro.core.scanfree.ScanFree
import repro.core.t2b.T2B
import repro.data.{Mot, Workloads}

/** Algorithm T2B (§8.1): schema design from QCS under a storage budget. */
class T2BSpec extends SparkSpec {
  private lazy val s = spark
  private lazy val motData = SparkSpec.env(Workloads.mot, 0.002).taav.relations

  test("supports: a QCS is supported by its own seeded schema") {
    val q = Qcs("vehicle", Set("v_id", "v_make"), Set("v_id"))
    val kv = KVSchema("x", "vehicle", Seq("v_id"), Seq("v_make"))
    assert(T2B.supports(q, Seq(kv)))
  }

  test("supports: chains of extensions within a relation count") {
    val q = Qcs("test", Set("t_vid", "t_id", "t_region"), Set("t_vid"))
    val byVid = KVSchema("a", "test", Seq("t_vid"), Seq("t_id"))
    val byId  = KVSchema("b", "test", Seq("t_id"), Seq("t_region"))
    assert(T2B.supports(q, Seq(byVid, byId)))
    assert(!T2B.supports(q, Seq(byVid)))
  }

  test("supports: unreachable attributes fail") {
    val q = Qcs("vehicle", Set("v_id", "v_cc"), Set("v_id"))
    assert(!T2B.supports(q, Seq(KVSchema("x", "vehicle", Seq("v_make"), Seq("v_id")))))
  }

  test("estimateCells = distinct keys x |X| + rows x |Y|") {
    import s.implicits._
    val df = Seq((1L, "a"), (1L, "b"), (2L, "c")).toDF("v_id", "v_make")
    val kv = KVSchema("x", "vehicle", Seq("v_id"), Seq("v_make"))
    assert(T2B.estimateCells(kv, Map("vehicle" -> df)) == 2 * 1 + 3 * 1)
  }

  test("design seeds one KV schema per QCS (step 1)") {
    val res = T2B.design(Mot.catalog, motData, Workloads.motQcs, budgetCells = Long.MaxValue)
    assert(res.withinBudget)
    assert(res.schema.kvs.nonEmpty)
    assert(Workloads.motQcs.forall(T2B.supports(_, res.schema.kvs)))
  }

  test("design drops redundant schemas (step 2)") {
    // Two identical QCS: only one schema needed.
    val qcs = Seq(
      Qcs("vehicle", Set("v_id", "v_make"), Set("v_id")),
      Qcs("vehicle", Set("v_id", "v_make"), Set("v_id")))
    val res = T2B.design(Mot.catalog, motData, qcs, Long.MaxValue)
    assert(res.schema.kvs.size == 1)
  }

  test("design drops a schema whose QCS another chain supports") {
    val qcs = Seq(
      Qcs("test", Set("t_vid", "t_id"), Set("t_vid")),
      Qcs("test", Set("t_id", "t_region"), Set("t_id")),
      Qcs("test", Set("t_vid", "t_id", "t_region"), Set("t_vid"))) // implied by chain
    val res = T2B.design(Mot.catalog, motData, qcs, Long.MaxValue)
    assert(res.schema.kvs.size == 2)
    assert(qcs.forall(T2B.supports(_, res.schema.kvs)))
  }

  test("design merges schemas under a tight budget (step 3)") {
    val qcs = Seq(
      Qcs("item", Set("it_tid", "it_rfr"), Set("it_tid")),
      Qcs("item", Set("it_tid", "it_severity"), Set("it_tid")))
    val loose = T2B.design(Mot.catalog, motData, qcs, Long.MaxValue)
    val merged = T2B.design(Mot.catalog, motData, qcs, loose.estimatedCells - 1)
    assert(merged.schema.kvs.size < loose.schema.kvs.size ||
           merged.estimatedCells < loose.estimatedCells)
    assert(qcs.forall(T2B.supports(_, merged.schema.kvs)))
  }

  test("design reports when the budget cannot be met") {
    val res = T2B.design(Mot.catalog, motData, Workloads.motQcs, budgetCells = 1)
    assert(!res.withinBudget)
    assert(Workloads.motQcs.forall(T2B.supports(_, res.schema.kvs)))
  }

  test("queries abstracted by the QCS are scan-free over the designed schema") {
    val res = T2B.design(Mot.catalog, motData, Workloads.motQcs, Long.MaxValue)
    // mot_q1 follows the access patterns of motQcs (v_id known, then tests).
    val q1 = Workloads.motQueries.head.q
    assert(ScanFree.check(q1, res.schema, Mot.catalog).scanFree)
  }

  test("key-only QCS (Z = X) seed no schema but are trivially supported") {
    val qcs = Seq(Qcs("vehicle", Set("v_id"), Set("v_id")))
    val res = T2B.design(Mot.catalog, motData, qcs, Long.MaxValue)
    assert(res.schema.kvs.isEmpty)
    assert(qcs.forall(T2B.supports(_, res.schema.kvs)))
  }
}
