package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.query._
import repro.core.scanfree._

class ChaseSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)

  test("GET starts from constant attributes (rule a)") {
    val res = Chase.run(q1, BaaVSchema(Nil))
    assert(res.get.contains(a("N", "name")))
    assert(res.steps.isEmpty)
  }

  test("GET propagates via equality transitivity (rule b)") {
    val res = Chase.run(q1, BaaVSchema(Seq(kvNation)))
    // ~NATION step adds N.nationkey; rule (b) carries it to S.nationkey.
    assert(res.get.contains(a("N", "nationkey")))
    assert(res.get.contains(a("S", "nationkey")))
  }

  test("the chase on Q1 over ~R1 reaches all attributes (Example 6/7)") {
    val res = Chase.run(q1, r1)
    val expect = Set(
      a("N", "name"), a("N", "nationkey"),
      a("S", "nationkey"), a("S", "suppkey"),
      a("PS", "suppkey"), a("PS", "partkey"), a("PS", "supplycost"), a("PS", "availqty"))
    assert(expect.subsetOf(res.get))
  }

  test("the chasing sequence of Q1 is the T1,T2,T3 chain of Example 7") {
    val res = Chase.run(q1, r1)
    assert(res.steps.map(s => (s.alias, s.kv.name)) ==
      Seq(("N", "~NATION"), ("S", "~SUPPLIER"), ("PS", "~PARTSUPP")))
    // T1's key comes from the constant, T2's from T1, T3's from T2.
    assert(res.steps(0).keySources == Seq("name" -> ConstSrc("GERMANY", a("N", "name"))))
    assert(res.steps(1).keySources ==
      Seq("nationkey" -> StepSrc(0, a("N", "nationkey"))))
    assert(res.steps(2).keySources ==
      Seq("suppkey" -> StepSrc(1, a("S", "suppkey"))))
  }

  test("stepOut accumulates frontier attributes along the chain") {
    val res = Chase.run(q1, r1)
    assert(res.stepOut(0) == Set(a("N", "name"), a("N", "nationkey")))
    assert(res.stepOut(2).contains(a("N", "name")))
    assert(res.stepOut(2).contains(a("S", "suppkey")))
    assert(res.stepOut(2).contains(a("PS", "supplycost")))
  }

  test("no steps fire without retrievable key attributes") {
    val noConst = q1.copy(preds = q1.preds.filterNot(_.isInstanceOf[EqConst]))
    val res = Chase.run(noConst, r1)
    assert(res.steps.isEmpty)
    assert(res.get.isEmpty)
  }

  test("a range predicate does not seed the chase") {
    val ranged = q1.copy(preds = q1.preds.map {
      case EqConst(at, v) => CmpConst(at, CmpOp.Ge, v)
      case p              => p
    })
    val res = Chase.run(ranged, r1)
    assert(res.steps.isEmpty)
  }

  test("composite keys require all key attributes in GET") {
    import repro.data.{Airca, Workloads}
    val q3 = Workloads.aircaQueries(2).q // flight f_id const, route keyed (origin, dest)
    val res = Chase.run(q3, Airca.baavSchema)
    val routeStep = res.steps.find(_.kv.name == "route_by_od")
    assert(routeStep.isDefined)
    assert(routeStep.get.keySources.map(_._1) == Seq("r_origin", "r_dest"))
  }

  test("getCols scopes attributes per alias") {
    val res = Chase.run(q1, r1)
    assert(res.getCols("N") == Set("name", "nationkey"))
    assert(res.getCols("PS") == Set("suppkey", "partkey", "supplycost", "availqty"))
  }

  test("derivedBy records a source for every GET attribute") {
    val res = Chase.run(q1, r1)
    res.get.foreach(at => assert(res.derivedBy.contains(at), s"no source for ${at.qname}"))
  }
}
