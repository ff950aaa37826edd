package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.planner._
import repro.core.query._
import repro.data.Workloads

/** Structural tests of chase-based plan generation (§6.2, Example 7). */
class PlannerSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)

  test("the plan for Q1 is the chain (('GERMANY' ∝ ~NATION) ∝ ~SUPPLIER) ∝ ~PARTSUPP") {
    val zp = PlanGen.plan(q1, r1, cat)
    zp.body match {
      case KExtend(KExtend(KExtend(KConst(Nil), "N", n, nk), "S", s, sk), "PS", ps, pk) =>
        assert(n.name == "~NATION" && s.name == "~SUPPLIER" && ps.name == "~PARTSUPP")
        assert(nk == Seq("name" -> FromConst("GERMANY", a("N", "name"))))
        assert(sk == Seq("nationkey" -> FromAttr(a("N", "nationkey"))))
        assert(pk == Seq("suppkey" -> FromAttr(a("S", "suppkey"))))
      case other => fail(s"unexpected plan shape: $other")
    }
  }

  test("the Q1 plan is scan-free with all aliases fetched") {
    val zp = PlanGen.plan(q1, r1, cat)
    assert(zp.scanFree)
    assert(zp.aliasModes.values.toSet == Set(AliasMode.ScanFreeFetch))
  }

  test("subsumed chain prefixes are dropped (Example 7(d))") {
    val zp = PlanGen.plan(q1, r1, cat)
    // A single chain: no KJoin anywhere in the body.
    def noJoin(p: KPlan): Boolean = p match {
      case KExtend(in, _, _, _) => noJoin(in)
      case _: KJoin             => false
      case _                    => true
    }
    assert(noJoin(zp.body))
  }

  test("usedInstances lists the chain's KV instances") {
    val zp = PlanGen.plan(q1, r1, cat)
    assert(zp.usedInstances == Set("~NATION", "~SUPPLIER", "~PARTSUPP"))
  }

  test("a non-scan-free single-table query becomes a KV-instance scan") {
    val q = Query("scan", Seq(RelAtom("PARTSUPP", "PS")), Nil,
      Seq(a("PS", "suppkey") -> "sk"),
      Some(Seq(a("PS", "suppkey"))),
      Seq(Agg(AggFn.Sum, Some(a("PS", "supplycost")), "tot")))
    val zp = PlanGen.plan(q, r1, cat)
    assert(!zp.scanFree)
    assert(zp.aliasModes("PS") == AliasMode.KVScan)
    assert(zp.body == KScanKV("PS", kvPartsupp))
  }

  test("an uncovered relation falls back to a TaaV scan") {
    val q = Query("taav", Seq(RelAtom("NATION", "N")), Nil,
      Seq(a("N", "name") -> "name"), distinct = true)
    val zp = PlanGen.plan(q, BaaVSchema(Nil), cat)
    assert(zp.aliasModes("N") == AliasMode.TaaVScan)
    assert(zp.body == KScanRel("N", "NATION", Seq("nationkey", "name")))
  }

  test("clo-reconstruction joins scans of two instances on the key") {
    // Split PARTSUPP across two schemas; needing all attrs forces a scan of
    // each, joined on their shared fields, which hold the primary key.
    val ps1 = KVSchema("ps_a", "PARTSUPP", Seq("suppkey"), Seq("partkey", "availqty"))
    val ps2 = KVSchema("ps_b", "PARTSUPP", Seq("partkey", "suppkey"), Seq("supplycost"))
    val sch = BaaVSchema(Seq(ps1, ps2))
    val q = Query("recon", Seq(RelAtom("PARTSUPP", "PS")),
      Seq(CmpConst(a("PS", "availqty"), CmpOp.Gt, "0")),
      Seq(a("PS", "partkey") -> "pk"),
      Some(Seq(a("PS", "partkey"))),
      Seq(Agg(AggFn.Sum, Some(a("PS", "supplycost")), "tot")))
    val zp = PlanGen.plan(q, sch, cat)
    assert(zp.aliasModes("PS") == AliasMode.KVScanJoin)
    assert(zp.body == KJoin(KScanKV("PS", ps1), KScanKV("PS", ps2), Nil))
  }

  test("non-scan-free joins produce KJoin over scans with the join predicate") {
    val q = Workloads.tpchQueries.find(_.q.name == "tq18").get.q
    val zp = PlanGen.plan(q, repro.data.TpchLite.baavSchema, repro.data.TpchLite.catalog)
    zp.body match {
      case KJoin(_: KScanKV, _: KScanKV, on) => assert(on.nonEmpty)
      case other                             => fail(s"unexpected shape: $other")
    }
  }

  test("branching chases join their branch plans (airca_q6)") {
    val q = Workloads.aircaQueries.find(_.q.name == "airca_q6").get.q
    val zp = PlanGen.plan(q, repro.data.Airca.baavSchema, repro.data.Airca.catalog)
    assert(zp.scanFree)
    def countJoins(p: KPlan): Int = p match {
      case KJoin(l, r, _)       => 1 + countJoins(l) + countJoins(r)
      case KExtend(in, _, _, _) => countJoins(in)
      case _                    => 0
    }
    assert(countJoins(zp.body) == 1)
  }

  test("every scan-free workload query yields a scan-free plan (Theorem 6)") {
    for (ds <- Workloads.all; wq <- ds.queries) {
      val zp = PlanGen.plan(wq.q, ds.baavSchema, ds.catalog)
      assert(zp.scanFree == wq.scanFree,
        s"${wq.q.name}: plan modes ${zp.aliasModes}")
    }
  }

  test("every workload template is fetched scan-free or by single KV scans") {
    // So a ladder change cannot silently move the Table 2/3 counters.
    def extendsScan(p: KPlan): Boolean = p match {
      case KExtend(in, _, _, _) => in.scans || extendsScan(in)
      case KJoin(l, r, _)       => extendsScan(l) || extendsScan(r)
      case _                    => false
    }
    for (ds <- Workloads.all; wq <- ds.queries) {
      val zp = PlanGen.plan(wq.q, ds.baavSchema, ds.catalog)
      val modes = zp.aliasModes.values.toSet
      assert(modes.subsetOf(Set(AliasMode.ScanFreeFetch, AliasMode.KVScan)), s"${wq.q.name}: $modes")
      assert((modes == Set(AliasMode.ScanFreeFetch)) == wq.scanFree, s"${wq.q.name}: $modes")
      assert(!extendsScan(zp.body), s"${wq.q.name}: an extension of a scan")
    }
  }

  test("non-scan-free workload queries never fall through to TaaV") {
    // The BaaV schemas are data preserving, so the ladder stops at KV scans.
    for (ds <- Workloads.all; wq <- ds.queries if !wq.scanFree) {
      val zp = PlanGen.plan(wq.q, ds.baavSchema, ds.catalog)
      assert(!zp.aliasModes.values.exists(_ == AliasMode.TaaVScan), s"${wq.q.name}")
    }
  }
}
