package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.query._
import repro.core.scanfree.ScanFree
import repro.data.Workloads

class ScanFreeSpec extends AnyFunSuite {

  test("Q1' is scan-free over ~R1 (Example 6)") {
    val rep = ScanFree.check(q1Prime, r1, cat)
    assert(rep.scanFree)
    assert(rep.perAlias == Map("PS" -> true, "S" -> true, "N" -> true))
  }

  test("VC of Q1' over ~R1 contains the three closures of Example 6") {
    val rep = ScanFree.check(q1Prime, r1, cat)
    assert(rep.vc("N").contains(Set("name", "nationkey")))
    assert(rep.vc("S").contains(Set("nationkey", "suppkey")))
    assert(rep.vc("PS").contains(Set("suppkey", "partkey", "supplycost", "availqty")))
  }

  test("Q1 (with group-by) is scan-free over ~R1 via Theorem 5") {
    assert(ScanFree.check(q1, r1, cat).scanFree)
  }

  test("Q1' and Q2 are scan-free over ~R1' (Example 6)") {
    assert(ScanFree.check(q1Prime, r1Prime, cat).scanFree)
    assert(ScanFree.check(q2, r1Prime, cat).scanFree)
  }

  test("without the constant, Q1 is not scan-free") {
    val noConst = q1.copy(preds = q1.preds.filterNot(_.isInstanceOf[EqConst]))
    val rep = ScanFree.check(noConst, r1, cat)
    assert(!rep.scanFree)
    assert(rep.perAlias.values.forall(v => !v))
  }

  test("breaking the chain breaks scan-freeness downstream only") {
    // Remove ~SUPPLIER: N is still reachable from the constant, S/PS are not.
    val broken = BaaVSchema(Seq(kvNation, kvPartsupp))
    val rep = ScanFree.check(q1, broken, cat)
    assert(!rep.scanFree)
    assert(rep.perAlias("N"))
    assert(!rep.perAlias("S"))
    assert(!rep.perAlias("PS"))
  }

  test("a KV schema outside GET does not enter VC") {
    // ~NATION is keyed by name; if name were not constant it is not in GET.
    val noConst = q1.copy(preds = q1.preds.filterNot(_.isInstanceOf[EqConst]))
    val rep = ScanFree.check(noConst, r1, cat)
    assert(rep.vc("N").isEmpty)
  }

  test("scan-freeness of Q2 relies on minimization") {
    // X^{Q2}_PS contains availqty, not coverable by ~R1'; min(Q2) drops PS'.
    val rep = ScanFree.check(q2, r1Prime, cat)
    assert(rep.minimized.dropped.nonEmpty)
    assert(rep.scanFree)
  }

  test("every workload query matches its paper scan-free class") {
    for (ds <- Workloads.all; wq <- ds.queries) {
      val rep = ScanFree.check(wq.q, ds.baavSchema, ds.catalog)
      assert(rep.scanFree == wq.scanFree,
        s"${wq.q.name}: expected scanFree=${wq.scanFree}, got ${rep.perAlias}")
    }
  }

  test("per-dataset scan-free counts match the paper's split (6/6, 6/6, 4/4)") {
    def count(ds: repro.data.Dataset) =
      ds.queries.count(wq => ScanFree.check(wq.q, ds.baavSchema, ds.catalog).scanFree)
    assert(count(Workloads.mot) == 6)
    assert(count(Workloads.airca) == 6)
    assert(count(Workloads.tpch) == 4)
  }
}
