package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.preserve.{Closure, Preservation}
import repro.core.query._

class PreservationSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)
  private val allRels = Seq("SUPPLIER", "PARTSUPP", "NATION")

  private def resultPreserving(q: Query, sch: BaaVSchema, c: Catalog = cat): Boolean =
    Preservation.isResultPreserving(Minimize.minimize(q, c), sch, c)

  test("clo starts from the schema's own attributes") {
    assert(Closure.clo(kvNation, r1, cat) == Set("name", "nationkey"))
  }

  test("clo expands through contained primary keys") {
    // ~PS1<suppkey,(partkey)> has pk {partkey,suppkey} contained in a second
    // schema keyed by the pk: its closure reaches availqty.
    val ps1 = KVSchema("ps1", "PARTSUPP", Seq("suppkey"), Seq("partkey"),
                       pkOpt = Some(Seq("partkey", "suppkey")))
    val ps2 = KVSchema("ps2", "PARTSUPP", Seq("partkey", "suppkey"),
                       Seq("supplycost", "availqty"))
    val sch = BaaVSchema(Seq(ps1, ps2))
    assert(Closure.clo(ps1, sch, cat) == Set("partkey", "suppkey", "supplycost", "availqty"))
  }

  test("clo never crosses relations") {
    assert(Closure.clo(kvSupplier, r1, cat) == Set("suppkey", "nationkey"))
  }

  test("~R1 is data preserving for R1 (Example 4)") {
    assert(Preservation.isDataPreserving(allRels, r1, cat))
  }

  test("~R1' is not data preserving (Example 5: availqty missing)") {
    assert(!Preservation.isDataPreserving(allRels, r1Prime, cat))
  }

  test("a schema missing a relation entirely is not data preserving") {
    val partial = BaaVSchema(Seq(kvNation, kvSupplier))
    assert(!Preservation.isDataPreserving(allRels, partial, cat))
  }

  test("~R1 is result preserving for Q1") {
    assert(resultPreserving(q1, r1))
  }

  test("~R1' is result preserving for Q1' (Example 5)") {
    assert(resultPreserving(q1Prime, r1Prime))
  }

  test("~R1' is result preserving for Q2 thanks to minimization (Example 5)") {
    assert(resultPreserving(q2, r1Prime))
  }

  test("without minimization-aware X, Q2 over ~R1' would need availqty") {
    // Direct X^{Q2}_PS includes availqty, which ~R1' cannot provide.
    assert(q2.attrsOf("PS").contains(a("PS", "availqty")))
    assert(!Closure.clo(kvPartsuppPrime, r1Prime, cat).contains("availqty"))
  }

  test("a query over an uncovered relation is not result preserving") {
    val sch = BaaVSchema(Seq(kvNation))
    assert(!resultPreserving(q1, sch))
  }

  test("result preservation needs every needed attribute in some closure") {
    // Remove supplycost from the only PARTSUPP schema: Q1 not preserved.
    val psNoCost = KVSchema("psx", "PARTSUPP", Seq("suppkey"), Seq("partkey", "availqty"))
    val sch = BaaVSchema(Seq(kvNation, kvSupplier, psNoCost))
    assert(!resultPreserving(q1, sch))
  }

  test("data preservability of the workload BaaV schemas") {
    import repro.data.{Mot, Airca, TpchLite}
    assert(Preservation.isDataPreserving(
      Seq("vehicle", "test", "item"), Mot.baavSchema, Mot.catalog))
    assert(Preservation.isDataPreserving(
      Seq("flight", "carrier", "airport", "plane", "route", "carrier_stats", "period"),
      Airca.baavSchema, Airca.catalog))
    assert(Preservation.isDataPreserving(
      Seq("nation", "supplier", "partsupp", "customer", "orders", "lineitem", "part"),
      TpchLite.baavSchema, TpchLite.catalog))
  }

  test("every workload query is result preserving over its BaaV schema") {
    import repro.data.Workloads
    for (ds <- Workloads.all; wq <- ds.queries) {
      assert(resultPreserving(wq.q, ds.baavSchema, ds.catalog),
             s"${wq.q.name} should be result preserving")
    }
  }
}
